package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestFlagsSetEveryOption requires renuca-sim's flags together to change
// every core.Options field: a field no flag reaches is a knob the command
// line cannot turn.
func TestFlagsSetEveryOption(t *testing.T) {
	def, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := parseArgs([]string{
		"-policy", "snuca",
		"-apps", strings.Join(workload.Standard(16)[1].Apps, ","),
		"-instr", "1000",
		"-warmup", "500",
		"-seed", "7",
		"-threshold", "25",
		"-l2", "131072",
		"-l3bank", "1048576",
		"-rob", "168",
		"-intrabank-wl",
		"-write-latency", "250",
	})
	if err != nil {
		t.Fatal(err)
	}
	dv, sv := reflect.ValueOf(def.opts), reflect.ValueOf(set.opts)
	for _, f := range reflect.VisibleFields(dv.Type()) {
		if f.IsExported() && reflect.DeepEqual(dv.FieldByIndex(f.Index).Interface(), sv.FieldByIndex(f.Index).Interface()) {
			t.Errorf("no renuca-sim flag sets Options.%s", f.Name)
		}
	}
}

func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string // "" = valid
		check   func(simArgs) bool
	}{
		{args: nil, check: func(a simArgs) bool {
			return a.workload == "WL1" && a.opts.Policy == core.ReNUCA && a.opts.InstrPerCore == 400_000
		}},
		{args: []string{"-apps", strings.Repeat("mcf,", 15) + "mcf"}, check: func(a simArgs) bool {
			return a.workload == "custom" && len(a.opts.Apps) == 16
		}},
		{args: []string{"-write-latency", "4294967295"}, check: func(a simArgs) bool {
			return a.opts.ReRAMWriteLatency == math.MaxUint32
		}},
		{args: []string{"-all", "-workers", "0"}, check: func(a simArgs) bool { return a.all && a.workers == 0 }},
		{args: []string{"-list-workloads"}, check: func(a simArgs) bool { return a.listWL }},
		{args: []string{"-write-latency", "4294967396"}, wantErr: "-write-latency"},
		{args: []string{"-instr", "0"}, wantErr: "-instr"},
		{args: []string{"-all", "-workers", "-4"}, wantErr: "-workers"},
		{args: []string{"-policy", "tnuca"}, wantErr: "-policy"},
		{args: []string{"-workload", "WL11"}, wantErr: "-workload"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			a, err := parseArgs(c.args)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.wantErr == "" && !c.check(a):
				t.Errorf("parsed %+v", a)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Errorf("got error %v, want one naming %s", err, c.wantErr)
			}
		})
	}
}
