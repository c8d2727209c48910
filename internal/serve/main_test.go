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
	return otherStacks(func(g string) bool {
		return strings.Contains(g, "flat/internal/serve.") || strings.Contains(g, "flat.(*Results)")
	})
}

// otherStacks returns the stack of every goroutine other than the
// caller's for which keep is true.
func otherStacks(keep func(stack string) bool) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var kept []string
	// The first stack is the calling goroutine's.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if keep(g) {
			kept = append(kept, g)
		}
	}
	return kept
}
