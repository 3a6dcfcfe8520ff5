package main

// goldenCell is a recorded ledger of the default seed.
type goldenCell struct {
	hash   string
	steady float64
}

// goldenTable3 holds the ledger SHA-256 and steady-state utilization of every
// sim-table3 cell for pass 0 of seed 1 (the paper's own traces) at simScale.
// A change that alters any schedule shows here. Regenerate, only for an
// intended scheduling change, with:
//
//	PERFBENCH_REGEN=1 go test -run TestTracedLedgersMatchUntraced -v .
var goldenTable3 = map[string]goldenCell{
	"Sep-Cab/Jigsaw":  {"ba77ff5f206ab681e216edc04ae4873b9cbdfdd449ea505bfb464d31d6db9ee7", 0.8967755205573171},
	"Sep-Cab/LaaS":    {"3fde9202f89e0aff04b38af7a2eed09b3d1ff084bf444df78358e3412b6a6e73", 0.8538440539840294},
	"Sep-Cab/TA":      {"d8c5bce2e536717c6e82dfb1fca8311888735add7e4f100b1b551a4019542fe7", 0.7860190929314256},
	"Synth-16/Jigsaw": {"02138ea622a9fa89c2c44281877de1404c7d56809dc63c35668b5981888b4bb2", 0.967552853016987},
	"Synth-16/LaaS":   {"b64d2dbe369dd1892a765305ebb123ddab1cf48ba2292df861ae3ae42e44d844", 0.8896134074536173},
	"Synth-16/TA":     {"a4c89f808f6996499b9768f4e464ba90d614dcf3a5143f839f6bd4b35121489c", 0.904447580998901},
	"Synth-28/Jigsaw": {"c07272f88a76d686933c3eac3cff3a2de222f7f4ca935029c0c99e43aeaf8859", 0.9782883697813785},
	"Synth-28/LaaS":   {"7170f1afc3f72980930662fa9f2bbc1b9abc854eb8cd54a0d66644a75d3adb87", 0.8769275159507783},
	"Synth-28/TA":     {"ae61d81216d4b107c822daf04df30ed5a8f3fef8e52277055119796578e6200c", 0.8976059382874354},
	"Thunder/Jigsaw":  {"b00d57f59091f2f7f8213de50f481f094ce50120ca224e92ac4bdd860b7e8005", 0.9440441141058418},
	"Thunder/LaaS":    {"c0aaf372765191fc356959e92b8ac913b2e5a42746cfebbcf5c6039b0fd36883", 0.9070256797734259},
	"Thunder/TA":      {"637370c4d11edd3ecdb0d43854d31f4901504fa9ae520779ea2797748fe9394e", 0.824592165235655},
}
