package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"flat"
)

// FuzzServerFrames feeds arbitrary post-handshake bytes to a
// connection handler: whatever arrives, the handler must return once
// the peer hangs up — no panic, no hang — and leave no query holding an
// admission slot.
func FuzzServerFrames(f *testing.F) {
	els := testElements(300, 13)
	world := flat.Box(flat.V(0, 0, 0), flat.V(1000, 1000, 1000))
	query := frame(msgQuery, 7, queryBody(kindRange, world, 0, 0))
	nnBody := make([]byte, 24+4+1)
	putU32(nnBody[24:], 5)
	del := make([]byte, 8+48)
	putElement(del, els[0])
	ins := make([]byte, 4+elementWire)
	putU32(ins, 1)
	putElement(ins[4:], flat.Element{ID: 1 << 40, Box: flat.CubeAt(flat.V(500, 500, 500), 2)})

	// One valid frame of each request type.
	f.Add(query)
	f.Add(frame(msgQuery, 1, queryBody(kindCount, world, 3, 0)))
	f.Add(frame(msgNN, 2, nnBody))
	f.Add(frame(msgCancel, 7, nil))
	f.Add(frame(msgInsert, 3, ins))
	f.Add(frame(msgDelete, 4, del))
	f.Add(frame(msgFlush, 5, nil))
	f.Add(frame(msgRebuild, 6, nil))
	f.Add(frame(msgStats, 8, nil))
	// An oversized length prefix, a truncated payload, reserved flag
	// bits set on both streaming requests, one request id reused while
	// in flight, and the other refusals that travel as codeBadRequest:
	// an unknown kind, an unknown frame type, a bad insert count and a
	// short delete.
	f.Add(binary.BigEndian.AppendUint32(nil, maxPayload+1))
	f.Add(query[:len(query)-9])
	f.Add(frame(msgQuery, 9, queryBody(kindRange, world, 0, 0x7f)))
	f.Add(frame(msgNN, 9, append(nnBody[:28:28], 0x7f)))
	f.Add(bytes.Repeat(query, 20))
	f.Add(frame(msgQuery, 9, queryBody(9, world, 0, 0)))
	f.Add(frame(0x7e, 9, nil))
	f.Add(frame(msgInsert, 9, ins[:len(ins)-1]))
	f.Add(frame(msgDelete, 9, del[:len(del)-1]))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh index per input: insert and rebuild frames mutate it.
		sx, err := flat.Build(append([]flat.Element(nil), els...), &flat.Options{Shards: 2, PageCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer sx.Close()
		s := NewServer(sx, Config{MaxConnQueries: 4})
		cli, srv := net.Pipe()
		handled := make(chan struct{})
		s.wg.Add(1) // handle's Done, as Serve does before starting it
		go func() {
			s.handle(srv)
			close(handled)
		}()
		// net.Pipe is unbuffered: responses must be read for the
		// handler's writes to complete.
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, cli)
			close(drained)
		}()

		// A handler that gives up on a malformed frame closes its end,
		// failing the rest of this write; that is a valid outcome.
		cli.SetWriteDeadline(time.Now().Add(10 * time.Second))
		cli.Write(append(append(magic[:], Version), data...))
		cli.Close()
		select {
		case <-handled:
		case <-time.After(10 * time.Second):
			t.Fatal("handler still running 10 s after the peer hung up")
		}
		<-drained
		s.Shutdown() // waits for the query goroutines the frames started
		if n := s.adm.inflight(); n != 0 {
			t.Fatalf("%d queries still hold admission slots", n)
		}
	})
}
