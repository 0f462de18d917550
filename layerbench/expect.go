package main

// Recorded outputs of the program at the benchmark's settings. A change that
// only speeds the simulator up must leave every one of them identical; a
// change that means to alter simulated results updates them and says so.

// paperDigests are the first 8 bytes (hex) of the SHA-256 of each
// experiment's rendered table (exp.Table.String, no timing line) with
// Options{Quick: true} over the full evaluation set.
var paperDigests = map[string]string{
	"table1":      "67658e167059c443",
	"table2":      "3ca5848776ce1931",
	"table4":      "2f8ee468ab7bcf13",
	"figure2":     "5d9e869b143ab9b4",
	"figure3":     "c0842385941003eb",
	"figure4":     "313d95e5c8b75733",
	"figure9":     "6d262d773f9ee505",
	"figure10":    "9820cc2d7d76121c",
	"figure11":    "ffcbc8df02c4501a",
	"figure12":    "d96c2e0d914546c8",
	"figure13":    "769f73d2b608bdfd",
	"figure14":    "ad0654fd01389810",
	"overheads":   "1793ace869bf4fe3",
	"designspace": "47bbd24376590128",
	"designsweep": "95819d4e012e9c17",
	"pipesweep":   "25f9640c8324c6ec",
	"prefsweep":   "fdb1014bb8d381bf",
}

// sweepDigest hashes the sweep grid's result records with their index
// removed (resultsDigest).
const sweepDigest = "898cefcb09d05026"

// sweepTruncated are the sweep grid's points that hit the cycle cap
// (design/tech/latency/prefetch/workload).
var sweepTruncated = map[string]bool{
	"BL/t7/4x/cta/kmeans":        true,
	"BL/t7/4x/cta/vectoradd":     true,
	"BL/t7/4x/off/kmeans":        true,
	"BL/t7/4x/off/vectoradd":     true,
	"regdem/t7/4x/cta/kmeans":    true,
	"regdem/t7/4x/cta/vectoradd": true,
	"regdem/t7/4x/off/kmeans":    true,
	"regdem/t7/4x/off/vectoradd": true,
}
