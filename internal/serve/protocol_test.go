package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"flat"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := sendFrame(&buf, msgQuery, append(make([]byte, frameHeader), payload...)); err != nil {
		t.Fatal(err)
	}
	if err := sendFrame(&buf, msgDone, make([]byte, frameHeader)); err != nil {
		t.Fatal(err)
	}
	src := &frameSource{Reader: &buf}
	typ, got, err := readFrame(src)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgQuery || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: type 0x%02x payload %v", typ, got)
	}
	typ, got, err = readFrame(src)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgDone || len(got) != 0 {
		t.Fatalf("frame 2: type 0x%02x payload %v", typ, got)
	}
	if _, _, err := readFrame(src); !errors.Is(err, io.EOF) {
		t.Fatalf("empty reader: %v, want EOF", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := sendFrame(&buf, msgElems, make([]byte, frameHeader+64)); err != nil {
		t.Fatal(err)
	}
	// Chop the payload: a header promising more than arrives must not
	// read as a clean EOF.
	torn := bytes.NewReader(buf.Bytes()[:buf.Len()-10])
	if _, _, err := readFrame(&frameSource{Reader: torn}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: %v, want ErrUnexpectedEOF", err)
	}
	// A hostile length prefix is refused before allocation.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, msgElems}
	if _, _, err := readFrame(&frameSource{Reader: bytes.NewReader(hostile)}); !errors.Is(err, errFrameSize) {
		t.Fatalf("hostile length: %v, want errFrameSize", err)
	}
	if err := sendFrame(io.Discard, msgElems, make([]byte, frameHeader+maxPayload+1)); !errors.Is(err, errFrameSize) {
		t.Fatalf("oversized write: %v, want errFrameSize", err)
	}
}

func TestElementWireRoundTrip(t *testing.T) {
	e := flat.Element{ID: 0xdeadbeefcafe, Box: flat.Box(flat.V(-1.5, 2.25, -3), flat.V(4, 5.5, 6.75))}
	var b [elementWire]byte
	putElement(b[:], e)
	if got := getElement(b[:]); got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
}

func TestQueryStatsWireRoundTrip(t *testing.T) {
	st := flat.QueryStats{
		RecordsVisited: 7, PagesVisited: 5,
		SeedReads: 2, MetadataReads: 3, ObjectReads: 11, TotalReads: 16,
	}
	var b [48]byte
	putQueryStats(b[:], st)
	if got := getQueryStats(b[:]); got != st {
		t.Fatalf("round trip: %+v != %+v", got, st)
	}
}

// TestErrorMapping pins the wire error codes: each sentinel must
// survive encode/decode so errors.Is works across the connection, and
// the codes themselves are protocol surface that must not drift.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		err      error
		code     byte
		sentinel error
	}{
		{flat.ErrBusy, codeBusy, flat.ErrBusy},
		{flat.ErrClosed, codeClosed, flat.ErrClosed},
		{context.Canceled, codeCancelled, context.Canceled},
		{context.DeadlineExceeded, codeCancelled, context.Canceled},
		{ErrShuttingDown, codeShutdown, ErrShuttingDown},
		{fmt.Errorf("conn: %w", badRequest{errors.New("unknown query kind 9")}), codeBadRequest, nil},
		{errors.New("disk on fire"), codeOther, nil},
	}
	for _, tc := range cases {
		code, msg := codeFor(tc.err)
		if code != tc.code {
			t.Fatalf("codeFor(%v) = %d, want %d", tc.err, code, tc.code)
		}
		back := errFor(code, msg)
		if tc.sentinel != nil && !errors.Is(back, tc.sentinel) {
			t.Fatalf("errFor(%d) = %v, does not match %v", code, back, tc.sentinel)
		}
		if tc.sentinel == nil && back == nil {
			t.Fatalf("code %d decoded to nil", code)
		}
		if isBad := strings.Contains(back.Error(), "bad request"); isBad != (code == codeBadRequest) {
			t.Fatalf("errFor(%d) = %v", code, back)
		}
	}
	// Wrapped sentinels map the same as bare ones.
	if code, _ := codeFor(errors.Join(errors.New("ctx"), flat.ErrBusy)); code != codeBusy {
		t.Fatalf("wrapped ErrBusy mapped to %d", code)
	}
}
