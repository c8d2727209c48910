package main

// Example pins the whole printed output, so a change that moves a
// count, a page read or a line of this example fails go test.
func Example() {
	main()
	// Output:
	// generating microcircuit...
	//   80000 segments in [(0, 0, 0) - (28.5, 28.5, 28.5)]
	// flat.Index{elements: 80000, partitions: 1096, pages: 1096 object + 31 metadata + 1 seed, 4.4 MiB}
	// extracting 27 subvolumes (857 µm³ each):
	//   element density across subvolumes: 2.19 - 5.28 per µm³
	//   total: 85950 elements retrieved with 2385 page reads (0.028 reads/element)
	//   data retrieved 9.32 MB for a 4.59 MB result (ratio 2.03)
}
