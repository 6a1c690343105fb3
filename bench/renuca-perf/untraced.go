package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pool"
)

// untraced is the timed run behind the end-to-end metrics. After one
// untimed warm rep it repeats a round — setupPerRep timed core.NewSystem
// calls, then one timed rep — while another round of the mean length so
// far fits in the time budget, which the warm rep counts against, and runs
// at least cfg.reps rounds. A rep submits every unit of every suite at once
// to a pool of cfg.workers slots, the leaf work core.RunSuiteOn hands
// renuca-bench's shared pool, and is timed from submission until the last
// unit is done and the suites are digested.
//
// sim_minstr_per_s is the median over the reps of the instructions a rep
// commits per second of its wall-clock time. Spreading the set-up samples
// across the rounds makes setup_s sample the same stretch of host time as
// the reps rather than only its first seconds.
func untraced(cfg config, sp *spec) (report, error) {
	suites := sp.expand(cfg.seed, cfg.scale)
	us := units(suites)
	var instrPerRep uint64
	for _, u := range us {
		instrPerRep += uint64(len(u.Opts.Apps)) * (u.Opts.Warmup + u.Opts.InstrPerCore)
	}
	d := newDetail(cfg, sp, suites)
	d.InstrPerRep = instrPerRep

	pl := pool.New(cfg.workers)
	start := now()
	warm := runRep(pl, suites, us)
	warmS := secondsSince(start)
	attempted, failed := len(us), warm.failed
	failures := warm.failures
	var setup, rates, rss []float64
	for {
		if n := len(rates); n >= cfg.reps {
			elapsed := secondsSince(start)
			if elapsed+(elapsed-warmS)/float64(n) > cfg.seconds {
				break
			}
		}
		for i := 0; i < cfg.setupPerRep; i++ {
			s, err := sampleSetup(us[len(setup)%len(us)])
			if err != nil {
				return report{}, err
			}
			setup = append(setup, s)
		}
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return report{}, err
		}
		t0 := now()
		r := runRep(pl, suites, us)
		rates = append(rates, float64(instrPerRep)/secondsSince(t0)/1e6)
		peak, err := peakRSSMB()
		if err != nil {
			return report{}, err
		}
		rss = append(rss, peak)
		attempted += len(us)
		failed += r.failed
		failures = append(failures, r.failures...)
		if r.digest != warm.digest {
			failed += len(us) - r.failed
			failures = append(failures, fmt.Sprintf("rep %d: sim_digest %s differs from the warm rep's %s", len(rates), r.digest, warm.digest))
		}
	}

	d.SimDigest = warm.digest
	d.SimMinstrPerS = newSpread(rates)
	d.SetupS = newSpread(setup)
	d.PeakRSSMB = newSpread(rss)
	d.Failures = failures
	d.FailedFrac = float64(failed) / float64(attempted)
	return report{detail: d, outcome: outcome{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"sim_minstr_per_s": {d.SimMinstrPerS.Median, "Minstr/s"},
			"setup_s":          {d.SetupS.Median, "s"},
			"peak_rss_mb":      {d.PeakRSSMB.Median, "MB"},
		},
	}}, nil
}

func newDetail(cfg config, sp *spec, suites []suite) detail {
	return detail{
		Workload:    sp.name,
		Why:         sp.why,
		Seed:        cfg.seed,
		Traced:      cfg.trace,
		Host:        fingerprint(cfg.workers),
		WarmupInstr: suites[0].base.Warmup,
		Instr:       suites[0].base.InstrPerCore,
		ColdCaches:  sp.cold,
		Units:       len(units(suites)),
	}
}

// sampleSetup times one core.NewSystem call for u's Options: the work done
// before the first simulated tick. The call starts from a heap that has
// returned all freed memory to the OS, as in a fresh process; otherwise how
// many of its pages fault in would depend on how far the runtime's
// background scavenger got, and the median would drift between runs.
func sampleSetup(u core.Unit) (float64, error) {
	debug.FreeOSMemory()
	t0 := now()
	if _, err := core.NewSystem(u.Opts); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	return secondsSince(t0), nil
}

// repResult is what one rep produced.
type repResult struct {
	digest   string
	failed   int
	failures []string
}

// runRep runs every unit once, then digests the suites' SuiteReports —
// aggregated as core.RunSuiteOn aggregates them — in suite order. A unit
// that errors or fails sane counts as failed, and its suite is left out of
// the digest: the aggregation assumes sane reports.
func runRep(pl *pool.Pool, suites []suite, us []core.Unit) repResult {
	reports := make([]core.Report, len(us))
	errs := make([]error, len(us))
	var r repResult
	_ = pl.Map(len(us), func(i int) error {
		reports[i], errs[i] = core.RunUnit(us[i])
		return nil // recorded per unit in errs
	})
	h := sha256.New()
	next := 0
	for _, s := range suites {
		block := reports[next : next+len(s.wls)]
		failed := r.failed
		for i, rep := range block {
			err := errs[next+i]
			if err == nil {
				err = sane(rep)
			}
			if err != nil {
				r.failed++
				r.failures = append(r.failures, fmt.Sprintf("%s: %v", us[next+i].ID, err))
			}
		}
		next += len(s.wls)
		if r.failed > failed {
			continue
		}
		b, err := json.Marshal(core.AggregateSuite(s.base.Policy.String(), block))
		if err != nil {
			r.failed += len(s.wls)
			r.failures = append(r.failures, fmt.Sprintf("%s: encoding report: %v", s.base.Policy, err))
			continue
		}
		h.Write(b)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r
}

// sane checks the bounds every simulated report must meet.
func sane(r core.Report) error {
	id := r.Policy + "/" + r.Workload
	switch {
	case !(r.MeanIPC > 0 && r.MeanIPC <= 4):
		return fmt.Errorf("%s: MeanIPC %v outside (0, 4]", id, r.MeanIPC)
	case r.MeasuredCycles == 0:
		return fmt.Errorf("%s: zero measured cycles", id)
	case len(r.BankLifetimes) == 0:
		return fmt.Errorf("%s: no bank lifetimes", id)
	}
	for b, l := range r.BankLifetimes {
		if !(l > 0) || !(r.FirstFailureLifetimes[b] > 0) {
			return fmt.Errorf("%s: bank %d lifetime %v / first failure %v not positive", id, b, l, r.FirstFailureLifetimes[b])
		}
	}
	return nil
}

// resetPeakRSS restarts the kernel's record of this process's peak
// resident set, so each rep's peak can be read on its own. The peak over a
// whole run would record whether a rare coincidence of GC timing and live
// Systems ever happened, which flips from run to run.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the peak resident set since resetPeakRSS (VmHWM), in
// MB (2^20 bytes).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}

// host fingerprints the machine a measurement came from, so two results
// can be told apart as drift or regression from their JSON alone.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Workers    int    `json:"workers"`
}

func fingerprint(workers int) host {
	return host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Workers:    workers,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spread summarises a sample: its median, quartiles, extremes and size.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func newSpread(xs []float64) *spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &spread{
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// quantile interpolates linearly between the order statistics of the
// sorted sample s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
