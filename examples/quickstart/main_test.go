package main

// Example pins the whole printed output, so a change that moves a
// count, a page read or a line of this example fails go test.
func Example() {
	main()
	// Output:
	// flat.Index{elements: 10000, partitions: 137, pages: 137 object + 3 metadata + 1 seed, 0.6 MiB}
	// range query [(20, 20, 20) - (35, 30, 28)]:
	//   19 elements
	//   8 page reads: 1 seed + 3 metadata + 4 object
	// count query: 19 elements, 8 page reads
	// point query at (8.72320165491551, 9.250676142592571, 2.4261808346747613): 1 elements
	//   streamed element 5780 [(23.02974810618954, 29.627146081669384, 19.405293021834307) - (23.903380247006364, 30.500778222486208, 20.27892516265113)]
	//   streamed element 1848 [(31.969493811428322, 22.64960060247428, 20.19530781739765) - (32.83591479150503, 23.51602158255099, 21.061728797474363)]
	//   streamed element 2706 [(32.22981594844711, 24.47669724825568, 20.553729691919138) - (33.11408449378318, 25.360965793591756, 21.437998237255215)]
	//   streamed element 6272 [(23.881475664475296, 21.697358140170383, 20.949672719770664) - (24.4736150054378, 22.289497481132887, 21.541812060733168)]
	//   streamed element 8670 [(27.837831629288644, 23.637867673862537, 20.655317016109272) - (29.0601508420524, 24.860186886626295, 21.87763622887303)]
	// limited session: 5 page reads (full query cost 8)
	// flat.Index{shards: 4, elements: 10000, partitions: 140, pages: 140 object + 4 metadata + 0 seed, 0.6 MiB}
	//   1 shard(s): 19 elements, 8 page reads
	//   4 shard(s): 19 elements, 3 page reads
}
