package main

// expectations holds, per workload configuration, the analyzed event
// count and report fingerprint every run must reproduce. The fingerprints
// do not depend on the seed: the seed only reorders packs across writers,
// and a report may depend on each writer's order alone.
var expectations = map[string]expectation{
	"coupled-v1 procs=256 iters=4": {
		Events:      372800,
		Fingerprint: "db2b181395d922ee1a31f73871ea25f1c8abcca68bc46cb928af7b57b5d14da4",
	},
	"daemon-replay procs=256 iters=8": {
		Events:      744064,
		Fingerprint: "09825170ea18e966689c16cd89b134648b0563898254caef6b5d42d83709a070",
	},
	"daemon-live procs=256 iters=2": {
		Events:      187296,
		Fingerprint: "d26cd2205140d9c8268300ac05ec4177d4e2635d26869bc46569c33eca7e651c",
	},
	// The tests' tiny configurations.
	"coupled-v1 procs=16 iters=2": {
		Events:      6328,
		Fingerprint: "8fba6542721768f01058fc180fc57534dfb17641a8d35e0f8c761d580d364a2a",
	},
	"daemon-replay procs=16 iters=2": {
		Events:      6328,
		Fingerprint: "b96ab44e15ee283a960c5ff7aa0dac8613ef43950553e7bd6129118f748b8c8b",
	},
	"daemon-live procs=16 iters=2": {
		Events:      6328,
		Fingerprint: "03b40a323dfc9e2ec8f4649ec161485a306e07da673e42c5b4f978362d1a79de",
	},
}
