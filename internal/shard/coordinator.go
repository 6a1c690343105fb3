package shard

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/stats"
)

// Coordinator fans a batch of suite units out over worker processes and
// supervises them: per-unit timeout, bounded re-dispatch of units stranded
// by a worker death, prefixed stderr relay, and merged worker accounting.
// It implements the experiment layer's UnitRunner contract — reports come
// back positionally, one per unit, so aggregation downstream is identical
// to the in-process pool path.
type Coordinator struct {
	// Shards is how many worker processes to run (min 1, capped at the
	// batch size).
	Shards int
	// Command launches one worker: argv[0] and arguments. Workers speak
	// the shard protocol on stdin/stdout — in practice the host binary
	// re-executing itself with its hidden -shard-worker flag (see
	// SelfCommand).
	Command []string
	// Env entries are appended to the inherited environment of every
	// worker.
	Env []string
	// Timeout bounds one unit's wall time on a worker; a unit that blows
	// it is treated like a worker death (reap, restart, re-dispatch).
	// Zero means a generous default sized for full-scale suite units.
	// (Wall-clock here guards the harness, never the results; the timer
	// reads themselves live at the use sites.)
	Timeout time.Duration
	// Retries is the per-unit re-dispatch budget after worker deaths and
	// timeouts. Zero means the default of 2; negative disables retries.
	// Deterministic unit failures are never retried — a pure function
	// fails identically everywhere.
	Retries int
	// Log, when set, receives supervision messages (worker deaths,
	// re-dispatches, the end-of-run summary).
	Log func(format string, args ...any)
	// Stderr receives worker stderr lines, each prefixed "[shard N]".
	// Defaults to os.Stderr.
	Stderr io.Writer

	mu     sync.Mutex
	errMu  sync.Mutex
	cstats CoordStats
	wstats WorkerStats
}

// SelfCommand builds a worker Command that re-executes the current binary
// with the given arguments (conventionally its hidden -shard-worker flag).
func SelfCommand(args ...string) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("shard: resolving own executable: %w", err)
	}
	return append([]string{exe}, args...), nil
}

// Stats returns the coordinator's supervision counters and the merged
// worker counters for the most recent RunUnits call.
func (c *Coordinator) Stats() (CoordStats, WorkerStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cstats, c.wstats
}

// defaultTimeout is sized for a full-scale suite unit (hundreds of
// milliseconds at the default window) with orders-of-magnitude headroom
// for sweeps that lengthen the window, while still reaping a genuinely
// wedged worker.
const defaultTimeout = 10 * time.Minute

// unitStatus classifies one dispatch attempt.
type unitStatus int

const (
	unitOK     unitStatus = iota
	unitFailed            // the worker reported a deterministic error: abort, never retry
	workerDead            // death, timeout, protocol breakdown: reap and re-dispatch
	runAborted            // another slot already failed the run
)

// RunUnits executes units on the coordinator's workers and returns their
// Reports positionally (reports[i] belongs to units[i]). Workers are
// started lazily, fed one unit at a time from a shared queue (so fast
// units naturally load-balance), restarted when they die, and shut down
// cleanly — stdin closed, final stats line folded in — once the queue
// drains. The first deterministic unit failure, or a unit whose retry
// budget is exhausted, aborts the whole batch with that unit's error.
func (c *Coordinator) RunUnits(units []core.Unit) ([]core.Report, error) {
	n := len(units)
	if n == 0 {
		return nil, nil
	}
	if len(c.Command) == 0 {
		return nil, errors.New("shard: Coordinator.Command is empty")
	}
	shards := c.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	retries := c.Retries
	switch {
	case retries == 0:
		retries = 2
	case retries < 0:
		retries = 0
	}
	c.mu.Lock()
	c.cstats = CoordStats{Units: uint64(n)}
	c.wstats = WorkerStats{}
	c.mu.Unlock()

	reports := make([]core.Report, n)
	queue := make(chan int, n)
	for i := range units {
		queue <- i
	}
	var (
		mu        sync.Mutex
		tries     = make([]int, n)
		remaining = n
		done      = make(chan struct{})
		abort     = make(chan struct{})
		aborted   bool
		abortIdx  = n
		abortErr  error
	)
	complete := func() {
		mu.Lock()
		remaining--
		if remaining == 0 && !aborted {
			close(done)
		}
		mu.Unlock()
	}
	fail := func(idx int, err error) {
		mu.Lock()
		if !aborted {
			aborted = true
			close(abort)
		}
		if idx < abortIdx {
			abortIdx, abortErr = idx, err
		}
		mu.Unlock()
	}

	_ = pool.Coordinate(shards, func(slot int) error {
		var w *workerProc
		defer func() {
			// Abort path: reap whatever worker this slot still holds.
			if w != nil {
				w.kill()
			}
		}()
		for {
			select {
			case <-done:
				if w != nil {
					c.finishWorker(w, timeout)
					w = nil
				}
				return nil
			case <-abort:
				return nil
			case idx := <-queue:
				if w == nil {
					nw, err := c.startWorker(slot)
					if err != nil {
						fail(idx, fmt.Errorf("shard %d: starting worker: %w", slot, err))
						continue
					}
					w = nw
				}
				c.mu.Lock()
				c.cstats.Dispatched++
				c.mu.Unlock()
				rep, msg, st := c.runOn(w, idx, units[idx], timeout, abort)
				switch st {
				case unitOK:
					reports[idx] = rep
					w.completed++
					complete()
				case unitFailed:
					fail(idx, fmt.Errorf("shard: unit %s: %s", units[idx].ID, msg))
				case workerDead:
					progressed := w.completed
					w.kill()
					w = nil
					c.mu.Lock()
					c.cstats.WorkerDeaths++
					c.mu.Unlock()
					// The unit the dead worker held is re-dispatched. The
					// retry budget is charged only when the worker completed
					// nothing in its whole lifetime: a death after progress
					// says the infrastructure failed, not that the stranded
					// unit is poisoned, so its re-dispatch is free.
					// Termination stays bounded — every free re-dispatch is
					// licensed by at least one completed unit, and there are
					// only n completions to spend; a worker that never
					// completes anything keeps charging until some unit's
					// budget runs out.
					if progressed > 0 {
						c.mu.Lock()
						c.cstats.Retries++
						c.mu.Unlock()
						c.logf("shard %d: %s; re-dispatching unit %s (free: worker had completed %d units)", slot, msg, units[idx].ID, progressed)
						queue <- idx
						continue
					}
					mu.Lock()
					tries[idx]++
					attempt := tries[idx]
					mu.Unlock()
					if attempt > retries {
						fail(idx, fmt.Errorf("shard: unit %s: %s (re-dispatch budget of %d exhausted)", units[idx].ID, msg, retries))
						continue
					}
					c.mu.Lock()
					c.cstats.Retries++
					c.cstats.Charged++
					c.mu.Unlock()
					c.logf("shard %d: %s; re-dispatching unit %s (attempt %d of %d)", slot, msg, units[idx].ID, attempt+1, retries+1)
					queue <- idx
				case runAborted:
					return nil
				}
			}
		}
	})

	mu.Lock()
	err := abortErr
	left := remaining
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	if left != 0 {
		return nil, fmt.Errorf("shard: internal: %d units unaccounted for", left)
	}
	c.mu.Lock()
	cs, ws := c.cstats, c.wstats
	c.mu.Unlock()
	c.logf("shard: %d units over %d workers: dispatched=%d retries=%d (charged=%d) timeouts=%d worker starts=%d deaths=%d; workers ran %d units (%d failed), %d instructions, %d measured cycles",
		cs.Units, shards, cs.Dispatched, cs.Retries, cs.Charged, cs.Timeouts, cs.WorkerStarts, cs.WorkerDeaths,
		ws.UnitsRun, ws.UnitsFailed, ws.InstrSimulated, ws.MeasuredCycles)
	return reports, nil
}

// runOn ships one unit to a worker and waits for its answer, the per-unit
// timeout, or a run abort — whichever comes first.
func (c *Coordinator) runOn(w *workerProc, idx int, u core.Unit, timeout time.Duration, abort <-chan struct{}) (core.Report, string, unitStatus) {
	b, err := json.Marshal(unitMsg{Seq: idx, Unit: u})
	if err != nil {
		return core.Report{}, fmt.Sprintf("encoding unit: %v", err), unitFailed
	}
	b = append(b, '\n')
	if _, err := w.in.Write(b); err != nil {
		return core.Report{}, fmt.Sprintf("dispatch write failed: %v", err), workerDead
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case m, ok := <-w.msgs:
			if !ok {
				return core.Report{}, "worker died mid-unit", workerDead
			}
			switch {
			case m.Kind == msgResult && m.Seq == idx && m.Report != nil:
				return *m.Report, "", unitOK
			case m.Kind == msgError && m.Seq == idx:
				return core.Report{}, m.Error, unitFailed
			case m.Kind == msgStats && m.Stats != nil:
				// A stats line can only mean the worker saw stdin EOF —
				// impossible while we hold its stdin open. Fold it anyway
				// (counts must never be dropped) and keep waiting; the
				// closed msgs channel will follow immediately.
				c.mu.Lock()
				stats.MergeNumeric(&c.wstats, m.Stats)
				c.mu.Unlock()
			default:
				return core.Report{}, fmt.Sprintf("protocol violation: %q message (seq %d) while unit %d in flight", m.Kind, m.Seq, idx), workerDead
			}
		case <-t.C:
			c.mu.Lock()
			c.cstats.Timeouts++
			c.mu.Unlock()
			return core.Report{}, fmt.Sprintf("unit exceeded the %s per-unit timeout", timeout), workerDead
		case <-abort:
			return core.Report{}, "", runAborted
		}
	}
}

// workerProc is one live worker process plus its decoded message stream.
type workerProc struct {
	slot       int
	cmd        *exec.Cmd
	in         io.WriteCloser
	msgs       chan workerMsg // closed when stdout ends or turns to garbage
	stderrDone chan struct{}
	completed  int // units this worker answered over its lifetime; owned by the slot goroutine
}

func (c *Coordinator) startWorker(slot int) (*workerProc, error) {
	cmd := exec.Command(c.Command[0], c.Command[1:]...)
	cmd.Env = append(os.Environ(), c.Env...)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &workerProc{
		slot:       slot,
		cmd:        cmd,
		in:         in,
		msgs:       make(chan workerMsg, 4),
		stderrDone: make(chan struct{}),
	}
	// Worker supervision goroutines live outside the simulation pool;
	// poolslot only scans the experiment layer, so no allow is needed.
	go w.readLoop(out)
	go func() {
		defer close(w.stderrDone)
		c.relayStderr(slot, errPipe)
	}()
	c.mu.Lock()
	c.cstats.WorkerStarts++
	c.mu.Unlock()
	return w, nil
}

// readLoop decodes worker stdout into the message channel. Any framing or
// JSON failure ends the stream — the coordinator sees a closed channel,
// which it treats exactly like a death.
func (w *workerProc) readLoop(out io.Reader) {
	defer close(w.msgs)
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		var m workerMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return
		}
		w.msgs <- m
	}
}

// relayStderr forwards worker stderr line by line with a shard prefix, so
// interleaved worker logs stay attributable.
func (c *Coordinator) relayStderr(slot int, r io.Reader) {
	out := c.Stderr
	if out == nil {
		out = os.Stderr
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		c.errMu.Lock()
		//lint:allow mutexhold errMu exists solely to serialise this one write; no other critical section nests inside it, and the write target is the coordinator's own log sink, never a worker pipe
		fmt.Fprintf(out, "[shard %d] %s\n", slot, sc.Bytes())
		c.errMu.Unlock()
	}
}

// finishWorker shuts a worker down cleanly: close stdin, fold the stats
// line it emits on EOF, then reap the process. A worker that ignores the
// shutdown within the per-unit timeout is killed.
func (c *Coordinator) finishWorker(w *workerProc, timeout time.Duration) {
	w.in.Close()
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case m, ok := <-w.msgs:
			if !ok {
				<-w.stderrDone
				if err := w.cmd.Wait(); err != nil {
					c.mu.Lock()
					c.cstats.WorkerDeaths++
					c.mu.Unlock()
					c.logf("shard %d: worker exited uncleanly at shutdown: %v", w.slot, err)
				}
				return
			}
			if m.Kind == msgStats && m.Stats != nil {
				c.mu.Lock()
				stats.MergeNumeric(&c.wstats, m.Stats)
				c.mu.Unlock()
			}
		case <-t.C:
			c.logf("shard %d: worker ignored shutdown; killing it", w.slot)
			w.kill()
			c.mu.Lock()
			c.cstats.WorkerDeaths++
			c.mu.Unlock()
			return
		}
	}
}

// kill tears a worker down hard: close stdin, kill the process, drain the
// reader so it can finish, and reap. Used for dead, wedged and aborted
// workers; stats from a killed worker are lost by design (its counts died
// with it).
func (w *workerProc) kill() {
	w.in.Close()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	//lint:allow selectabort Process.Kill above guarantees the worker's stdout hits EOF, so readLoop closes msgs; the drain is bounded by construction
	for range w.msgs {
	}
	<-w.stderrDone
	w.cmd.Wait()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}
