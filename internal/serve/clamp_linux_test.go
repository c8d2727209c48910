//go:build linux

package serve

import (
	"net"
	"syscall"
	"testing"
)

// liftWindowClamp raises conn's receive-window clamp to size. Linux
// lowers the clamp when SO_RCVBUF shrinks and does not raise it when the
// buffer grows again, so after throttle the window stays under 16 KiB
// and a frame larger than that crawls in delayed-ACK lockstep.
func liftWindowClamp(t *testing.T, conn net.Conn, size int) {
	t.Helper()
	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_WINDOW_CLAMP, size)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
}
