package serve

import (
	"testing"

	"flat"
)

// BenchmarkStreamDrain prices a served range query per result: a warm
// drain of an LSS-sized box (4 422 results) over loopback, server and
// client in this process, through every layer the stream crosses — the
// crawl, the staged-delete filter, the session limit, frame encoding,
// the socket and the client's decode. It reports ns/result beside
// ns/op and allocs/op.
func BenchmarkStreamDrain(b *testing.B) {
	sx, err := flat.Build(testElements(20000, 23), &flat.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sx.Close()
	c := dialServer(b, startServer(b, sx, Config{}))
	lss := flat.CubeAt(flat.V(500, 500, 500), 600)
	n := drainRange(b, c, lss) // warm the caches and the pools
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		drainRange(b, c, lss)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/result")
}
