package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/coflow"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/validate"
)

// opRecord is the outcome of one op. Ms, for the service, is the
// client-side latency.
type opRecord struct {
	I       int     `json:"i"`
	Class   string  `json:"class"`
	Ms      float64 `json:"ms"`
	Err     string  `json:"err,omitempty"`
	Coflows int     `json:"coflows"`
	// Ratio is Σw·C over the op's lower bound (see lowerBounds).
	Ratio float64 `json:"ratio"`
	// Digest is the SHA-256 of the report JSON.
	Digest string `json:"digest,omitempty"`
	// Work holds the deterministic work counters of a traced op.
	Work workCounts `json:"work,omitempty"`

	spec     spec.Spec
	weighted float64
	lp       float64 // the report's LP bound, 0 without one
}

// run is everything one measured run produced.
type run struct {
	w   *workload
	ops []opRecord
	// window is the time the ops ran, without the set-up samples taken
	// between them.
	window time.Duration
	// allocBytes is the heap allocated during the window (coflowd's,
	// for the service) and peakRSS the high-water resident set in MB.
	allocBytes uint64
	peakRSS    float64
	setup      []float64
	// problems are output checks that failed: a wrong output is not a
	// failed op, it makes the result incorrect.
	problems []string

	// Traced runs only.
	layers    map[string]*layerTime
	work      workCounts // summed over the ops
	frontMs   float64
	bytes     int64
	httpLayer map[string]float64 // service: HTTP and cache layers
	spans     []span
}

// fill records a successful op's report.
func (rec *opRecord) fill(rep *spec.RunReport, body []byte) {
	sum := sha256.Sum256(body)
	rec.Digest = hex.EncodeToString(sum[:])
	rec.Coflows = rep.Coflows
	rec.weighted = rep.Weighted
	if rep.HasLowerBound {
		rec.lp = rep.LowerBound
	}
}

// frontDoor runs one op through the library front door, spec.Run, and
// encodes its report as coflowsim -spec and coflowd do.
func frontDoor(ctx context.Context, s spec.Spec) ([]byte, *spec.RunReport, float64, error) {
	t0 := time.Now()
	rep, err := spec.Run(ctx, s)
	var body []byte
	if err == nil {
		body, err = json.Marshal(rep)
	}
	return body, rep, ms(time.Since(t0)), err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runLibrary runs whole rounds of w's ops in this process until a
// window of dur has passed, letting p take its set-up samples between
// ops, outside the window. A traced run also replays each op layer by
// layer, and fails if the replay's report differs from the front
// door's in any bit. Which of the two goes first alternates from op to
// op, so neither always inherits the other's garbage to collect.
func runLibrary(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool, p *prober) (*run, error) {
	r := &run{w: w}
	var tr *tracer
	if traced {
		registerTraced()
		tr = newTracer()
		r.layers = map[string]*layerTime{}
		r.work = workCounts{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for round := 0; round == 0 || r.window < dur; round++ {
		for _, o := range w.round(w, seed, round) {
			if _, err := p.tick(r.window); err != nil {
				return nil, err
			}
			start := time.Now()
			rec := opRecord{I: len(r.ops), Class: o.Class, spec: o.Spec}
			front := func() []byte {
				body, rep, opMs, err := frontDoor(ctx, o.Spec)
				rec.Ms = opMs
				if err != nil {
					rec.Err = err.Error()
				} else {
					rec.fill(rep, body)
				}
				return body
			}
			if !traced {
				front()
			} else {
				var body []byte
				var rp *replay
				if rec.I%2 == 0 {
					body, rp = front(), replayOp(ctx, tr, rec.I, o.Spec)
				} else {
					rp, body = replayOp(ctx, tr, rec.I, o.Spec), front()
				}
				if err := r.absorb(&rec, body, rp); err != nil {
					return nil, err
				}
			}
			r.ops = append(r.ops, rec)
			r.window += time.Since(start)
		}
	}
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.peakRSS = vmHWM("self")
	if tr != nil {
		r.spans = tr.spans
	}
	return r, lowerBounds(r.ops)
}

// replay is one op replayed layer by layer.
type replay struct {
	body   []byte
	err    error
	layers map[string]*layerTime
	work   workCounts
}

func replayOp(ctx context.Context, tr *tracer, i int, s spec.Spec) *replay {
	ts := &traceState{tr: tr, wc: workCounts{}}
	tr.beginOp(i)
	body, err := tracedRun(withTrace(ctx, ts), ts, s)
	layers := tr.endOp()
	for _, reg := range ts.regs {
		ts.wc.addRegistry(reg)
	}
	return &replay{body: body, err: err, layers: layers, work: ts.wc}
}

// absorb checks a replay against the front door's report and adds its
// layers and counters to the run.
func (r *run) absorb(rec *opRecord, front []byte, rp *replay) error {
	if (rp.err != nil) != (rec.Err != "") || !bytes.Equal(rp.body, front) {
		return fmt.Errorf("op %d: traced replay differs from the front door\n  spec: %s\n  front: err=%q %s\n  traced: err=%v %s",
			rec.I, specJSON(rec.spec), rec.Err, diffFields(front), rp.err, diffFields(rp.body))
	}
	rec.Work = rp.work
	for name, lt := range rp.layers {
		sum := r.layers[name]
		if sum == nil {
			sum = &layerTime{}
			r.layers[name] = sum
		}
		sum.Busy += lt.Busy
		sum.Self += lt.Self
		sum.Calls += lt.Calls
	}
	r.frontMs += rec.Ms
	r.bytes += int64(len(rp.body))
	for k, v := range rp.work {
		r.work[k] += v
	}
	return nil
}

// diffFields summarizes the fields the bit-for-bit check is about.
func diffFields(body []byte) string {
	var rep spec.RunReport
	if len(body) == 0 || json.Unmarshal(body, &rep) != nil {
		return "(no report)"
	}
	return fmt.Sprintf("lower_bound=%v weighted=%v events=%d completions=%v",
		rep.LowerBound, rep.Weighted, rep.Events, rep.Completions)
}

func specJSON(s spec.Spec) string {
	b, _ := json.Marshal(s) // a Spec always marshals
	return string(b)
}

// tracedRun performs spec.Run's steps one by one: Normalized →
// Materialize → engine.Schedule or sim.Simulate (through the traced
// wrappers) → validate → encode, building the same report.
func tracedRun(ctx context.Context, ts *traceState, s spec.Spec) ([]byte, error) {
	tr := ts.tr
	var ns spec.Spec
	if err := tr.span("spec.normalize", func() (err error) {
		ns, err = s.Normalized()
		return err
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var in *coflow.Instance
	if err := tr.span("workload.generate", func() (err error) {
		in, err = ns.Materialize()
		return err
	}); err != nil {
		return nil, err
	}
	mode, err := spec.ParseModel(ns.Model)
	if err != nil {
		return nil, err
	}
	rep := &spec.RunReport{
		Spec:      ns,
		Scheduler: ns.Scheduler,
		Policy:    ns.Policy,
		Model:     ns.Model,
		Coflows:   len(in.Coflows),
		Flows:     in.NumFlows(),
	}
	rep.Spec.Instance = nil
	reg := obs.NewRegistry()
	ts.regs = append(ts.regs, reg)
	if ns.Scheduler != "" {
		rep.Kind = "offline"
		// The traced stretch scheduler opens its own engine.schedule
		// span, so epoch re-plans are timed the same way.
		name, spanned := ns.Scheduler, ns.Scheduler == "stretch"
		if spanned {
			name = tracedStretchName
		}
		var res *engine.Result
		call := func() (err error) {
			res, err = engine.Schedule(ctx, name, in, mode, engine.Options{
				MaxSlots:          ns.Options.MaxSlots,
				Trials:            ns.Options.Trials,
				Seed:              ns.Options.Seed,
				Workers:           ns.Options.Workers,
				DisableCompaction: ns.Options.DisableCompaction,
				Obs:               reg,
			})
			return err
		}
		if spanned {
			err = call()
		} else {
			err = tr.span("engine.schedule", call)
		}
		if err != nil {
			return nil, err
		}
		rep.Weighted, rep.Total, rep.Completions = res.Weighted, res.Total, res.Completions
		rep.LowerBound, rep.HasLowerBound, rep.Extra = res.LowerBound, res.HasLowerBound, res.Extra
		for _, c := range res.Completions {
			rep.Makespan = math.Max(rep.Makespan, c)
		}
		if ns.Validate {
			if err := tr.span("validate.result", func() error { return validate.Result(in, res).Err() }); err != nil {
				return nil, fmt.Errorf("spec: scheduler %s failed validation: %w", ns.Scheduler, err)
			}
			rep.Validated = true
		}
	} else {
		rep.Kind = "online"
		var res *sim.Result
		err := tr.span("sim.simulate", func() (err error) {
			res, err = sim.Simulate(ctx, in, sim.Options{
				Policy:      tracedPolicyName(ns.Policy),
				Epoch:       ns.Options.Epoch,
				MaxSlots:    ns.Options.MaxSlots,
				Trials:      ns.Options.Trials,
				Seed:        ns.Options.Seed,
				Workers:     ns.Options.Workers,
				MaxEvents:   ns.Options.MaxEvents,
				Clairvoyant: ns.Options.Clairvoyant,
				CheckEvery:  ns.Options.CheckEvery,
				WarmLP:      ns.Options.WarmLP,
				Obs:         reg,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.Weighted, rep.Total, rep.AvgCCT, rep.Makespan = res.WeightedCCT, res.TotalCCT, res.AvgCCT, res.Makespan
		rep.Completions, rep.Replans, rep.Events = res.Completions, res.Replans, res.Events
		if ns.Validate {
			if err := tr.span("validate.sim", func() error {
				return validate.SimResult(in, res, ns.Options.Clairvoyant).Err()
			}); err != nil {
				return nil, fmt.Errorf("spec: policy %s failed validation: %w", ns.Policy, err)
			}
			rep.Validated = true
		}
	}
	var body []byte
	err = tr.span("encode.report", func() (err error) {
		body, err = json.Marshal(rep)
		return err
	})
	return body, err
}

// lowerBounds sets every successful op's Ratio: Σw·C over the LP bound
// when the op's algorithm solved one, else over Σw·(the per-coflow
// bound every schedule obeys: release plus the slowest flow's demand at
// its path's bottleneck rate). Instances are generated again here,
// after the measured window, once per distinct workload.
func lowerBounds(ops []opRecord) error {
	cache := map[string]float64{}
	for i := range ops {
		rec := &ops[i]
		if rec.Err != "" {
			continue
		}
		lb := rec.lp
		if lb == 0 {
			key := specJSON(spec.Spec{Topology: rec.spec.Topology, Workload: rec.spec.Workload, Policy: "fifo"})
			v, ok := cache[key]
			if !ok {
				in, err := rec.spec.Materialize()
				if err != nil {
					return err
				}
				for j, b := range validate.CoflowLowerBounds(in, coflow.SinglePath) {
					v += in.Coflows[j].Weight * b
				}
				cache[key] = v
			}
			lb = v
		}
		rec.Ratio = rec.weighted / lb
	}
	return nil
}
