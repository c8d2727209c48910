package flat

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak gate, and it pins that the
// index runs no background goroutine: once every test has run, no
// goroutine may still have a frame in the shard set, the core index or
// a non-test function of this package. Build and batch workers wind
// down asynchronously after their last job, so the check polls for a
// bounded time before it names the offenders.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		var leaked []string
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if leaked = leakedGoroutines(); len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutine(s) still running index code after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stack of every goroutine other than the
// caller's that runs index code (see runsIndexCode).
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	// The first stack is the calling goroutine's: TestMain itself.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if runsIndexCode(g) {
			leaked = append(leaked, g)
		}
	}
	return leaked
}

// runsIndexCode reports whether the goroutine stack g has a frame in
// flat/internal/shard, flat/internal/core, or a function of package flat
// defined outside its test files. Each frame is a function line followed
// by its "\tfile:line" line.
func runsIndexCode(g string) bool {
	lines := strings.Split(g, "\n")
	for i := 0; i+1 < len(lines); i++ {
		fn, file := lines[i], lines[i+1]
		if strings.HasPrefix(fn, "flat/internal/shard.") || strings.HasPrefix(fn, "flat/internal/core.") ||
			strings.HasPrefix(fn, "flat.") && !strings.Contains(file, "_test.go:") {
			return true
		}
	}
	return false
}
