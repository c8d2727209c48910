package serve

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak gate: once every test has
// run, no goroutine may still be inside this package or inside a query
// session it started. Handlers, query goroutines and client read loops
// wind down asynchronously after their connection closes, so the check
// polls for a bounded time before it names the offenders.
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
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutine(s) still in flat/internal/serve after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines returns the stack of every goroutine other than the
// caller's that has a frame of this package or of a flat.Results
// session.
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
		if strings.Contains(g, "flat/internal/serve.") || strings.Contains(g, "flat.(*Results)") {
			leaked = append(leaked, g)
		}
	}
	return leaked
}
