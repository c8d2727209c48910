package serve

import (
	"bytes"
	"context"
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
		sx, err := flat.Build(append([]flat.Element(nil), els...), &flat.Options{Shards: 2})
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

// FuzzClientFrames feeds arbitrary post-handshake bytes from a fake
// server to a Client with a Range, an NN, a Count and a Stats call in
// flight (request ids 1 to 4, in that order), then hangs up: every call
// must end with its elements or an error — no panic, no hang — and Close
// must return. Response payloads are pooled buffers, so the race
// detector also checks that none is reused while a Stream reads it.
func FuzzClientFrames(f *testing.F) {
	els := testElements(6, 17)
	elems := func(id uint32, batch []flat.Element) []byte {
		body := make([]byte, 4+len(batch)*elementWire)
		putU32(body, uint32(len(batch)))
		for i, e := range batch {
			putElement(body[4+i*elementWire:], e)
		}
		return frame(msgElems, id, body)
	}
	done := func(id uint32, count uint64) []byte {
		body := make([]byte, 8+48)
		putU64(body, count)
		return frame(msgDone, id, body)
	}
	errFrame := func(id uint32, code byte) []byte {
		return frame(msgErr, id, append([]byte{code}, "no"...))
	}
	stats := frame(msgStatsResp, 4, []byte(`{"Elements":6}`))
	cat := func(frames ...[]byte) []byte {
		var b []byte
		for _, fr := range frames {
			b = append(b, fr...)
		}
		return b
	}
	// Well-formed answers to all four calls, interleaved.
	f.Add(cat(elems(1, els[:2]), elems(2, els[2:3]), elems(1, els[3:]), done(3, 9), stats, done(2, 1), done(1, 6)))
	// Terminators only, errors, and frames for ids nobody asked.
	f.Add(cat(errFrame(1, codeBusy), errFrame(2, codeCancelled), errFrame(3, codeOther), errFrame(4, codeClosed)))
	f.Add(cat(elems(9, els), done(9, 6), elems(1, els[:1])))
	// Element frames for the count and stats calls, a batch whose count
	// disagrees with its length, short and unknown frames, a frame after
	// its stream's terminator, an oversized length prefix and a torn one.
	f.Add(cat(elems(3, els[:1]), elems(4, els[:1]), done(3, 1)))
	f.Add(cat(frame(msgElems, 1, []byte{5, 0, 0, 0}), frame(msgDone, 2, []byte{1}), frame(0x99, 3, nil), frame(msgStatsResp, 4, []byte("{"))))
	f.Add(cat(done(1, 0), elems(1, els), done(2, 0)))
	f.Add(cat(frame(msgOK, 1, nil)[:7], elems(2, els)))
	f.Add(binary.BigEndian.AppendUint32(nil, maxPayload+1))
	f.Add(elems(1, els)[:100])

	f.Fuzz(func(t *testing.T, data []byte) {
		cli, srv := net.Pipe()
		requests := make(chan struct{}, 4)
		go func() {
			defer srv.Close()
			var hello [5]byte
			if _, err := io.ReadFull(srv, hello[:]); err != nil {
				return
			}
			if _, err := srv.Write([]byte{Version}); err != nil {
				return
			}
			for i := 0; i < 4; i++ {
				if _, _, err := readFrame(srv); err != nil {
					return
				}
				requests <- struct{}{}
			}
			srv.Write(data)
		}()
		c, err := newClient(cli)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		world := flat.Box(flat.V(0, 0, 0), flat.V(1000, 1000, 1000))
		finished := make(chan struct{}, 4)
		drain := func(st *Stream, err error) {
			if err == nil {
				for range st.All() {
				}
			}
			finished <- struct{}{}
		}
		st, err := c.Range(ctx, world, QueryOptions{})
		go drain(st, err)
		<-requests
		st, err = c.NN(ctx, flat.V(1, 2, 3), 4)
		go drain(st, err)
		<-requests
		go func() {
			c.Count(ctx, world, QueryOptions{})
			finished <- struct{}{}
		}()
		<-requests
		go func() {
			c.Stats(ctx)
			finished <- struct{}{}
		}()
		timeout := time.After(10 * time.Second)
		for i := 0; i < 4; i++ {
			select {
			case <-finished:
			case <-timeout:
				t.Fatalf("%d of 4 calls still running 10 s after the server hung up", 4-i)
			}
		}
		closed := make(chan struct{})
		go func() {
			c.Close()
			<-c.done
			close(closed)
		}()
		select {
		case <-closed:
		case <-timeout:
			t.Fatal("Close did not return")
		}
	})
}
