package main

// Example pins the whole printed output, so a change that moves a
// count, a page read or a line of this example fails go test.
func Example() {
	main()
	// Output:
	// generating clustered n-body snapshot (Plummer halos)...
	//   120000 particles
	// flat.Index{elements: 120000, partitions: 1644, pages: 1644 object + 40 metadata + 1 seed, 6.6 MiB}
	// probing for the densest halo...
	//   densest cell at (700, 100, 700) with 12080 particles
	// zooming in (side: particles, FLAT reads vs PR-Tree reads):
	//   side  200.00:  12080 particles,  180 vs  183 reads
	//   side  100.00:  10116 particles,  172 vs  164 reads
	//   side   50.00:   2579 particles,   68 vs   89 reads
	//   side   25.00:    191 particles,   24 vs   29 reads
	//   side   12.50:     20 particles,   11 vs   10 reads
	//   side    6.25:      2 particles,    6 vs    7 reads
	//   side    3.12:      0 particles,    6 vs    7 reads
}
