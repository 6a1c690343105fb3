// Command renuca-bench (fixture): knobs arrive from environment variables,
// and Params.Scale reaches Options.Instr through field-to-field flow.
package main

import (
	"os"
	"strconv"

	"repro/internal/lint/testdata/optflow/internal/core"
	"repro/internal/lint/testdata/optflow/internal/experiments"
)

func main() {
	var p experiments.Params
	if v := os.Getenv("SCALE"); v != "" {
		n, _ := strconv.ParseUint(v, 10, 64)
		p.Scale = n
	}
	_ = experiments.Apply(p)

	var o core.Options
	o.Instr = p.Scale
	if v := os.Getenv("SEED"); v != "" {
		n, _ := strconv.ParseUint(v, 10, 64)
		o.Seed = n
	}
	if v := os.Getenv("TUNED"); v != "" {
		n, _ := strconv.ParseUint(v, 10, 64)
		o.Tuned = n
	}
	_ = core.Run(o)
}
