// Command perfbench is the repository benchmark. It launches the server
// under test (cmd/sut), drives one workload against it from a seeded
// load generator over loopback sockets, checks every stream against the
// serial oracle and prints every metric by name and unit, ending with a
// one-line JSON result. run.sh builds both binaries and runs it from the
// module root:
//
//	bash perfbench/run.sh --workload bulk-dense --seed 1 --seconds 10 --trace 0
//
// --trace 1 reports the per-layer metrics instead: an untraced and a
// traced server run of the workload and the in-process layer ladder.
package main

import (
	"flag"
	"fmt"
	"os"

	"cfgtag/perfbench/harness"
)

func main() {
	var o harness.Options
	flag.StringVar(&o.Workload, "workload", "bulk-dense", "workload: bulk-dense, bulk-sparse or churn-mixed")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.Seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Float64Var(&o.Rate, "rate", harness.ChurnRate, "churn-mixed arrivals per second")
	flag.StringVar(&o.SUT, "sut", "", "server-under-test binary")
	flag.StringVar(&o.Out, "out", ".bench_build/perfbench", "directory for span files")
	flag.Parse()
	o.Trace = *trace == 1
	if o.SUT == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -sut and -trace 0 or 1; run through perfbench/run.sh")
		os.Exit(2)
	}
	if err := harness.Run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
