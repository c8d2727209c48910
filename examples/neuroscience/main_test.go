package main

// Example pins the whole printed output, so a change that moves a
// count, a page read or a line of this example fails go test.
func Example() {
	main()
	// Output:
	// generating microcircuit...
	//   60000 segments, 40 neurons, 2.6 elements/µm³
	// building FLAT index and PR-Tree baseline...
	// crawling 1500 fiber points of neuron 0 (neighborhood radius 0.5 µm)
	//   150 proximity queries, 1026 touch candidates with other neurons
	//   FLAT:    1202 page reads (8.0 per query)
	//   PR-Tree: 2674 page reads (17.8 per query)
	//   FLAT reads 2.2x fewer pages
	// proximity detection as a spatial join (radius 0.5 µm)
	//   1500 segments of neuron 0 joined against 60000: 16622 touch pairs
	//   6 inner probes, 2684 page reads (outer 22 + inner 2662)
	// 5 segments nearest an electrode tip at (14.25, 14.25, 28.5)
	//   element 9117 (neuron 6) at 0.685 µm
	//   element 9116 (neuron 6) at 0.708 µm
	//   element 16354 (neuron 10) at 0.744 µm
	//   element 16353 (neuron 10) at 0.750 µm
	//   element 38493 (neuron 25) at 0.915 µm
	//   10 page reads
}
