package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun is what one child process reported.
type childRun struct {
	res result
	ops []opRecord
}

// runChild runs one workload in a fresh child process, passing its
// report through to stdout.
func runChild(self, name string, seed int64, seconds float64, trace int, coflowd string) (*childRun, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-coflowd", coflowd, "-ops")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := strings.CutPrefix(line, "ops "); ok {
			if err := json.Unmarshal([]byte(b), &cr.ops); err != nil {
				return nil, fmt.Errorf("%s: op records: %w", name, err)
			}
			continue
		}
		if last != "" {
			fmt.Println(last)
		}
		last = line
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return nil, fmt.Errorf("%s: result line %q: %w", name, last, err)
	}
	return cr, nil
}

// orchestrate runs every workload untraced and traced, each in a fresh
// child process, sets times over. With two or more sets it checks
// repeatability: every end-to-end metric's spread across sets must stay
// within its bound, and every deterministic counter must repeat
// exactly. It returns the exit code.
func orchestrate(self string, seed int64, seconds float64, sets int, coflowd string) int {
	runs := map[string][][2]*childRun{}
	for s := 0; s < max(1, sets); s++ {
		for _, w := range workloads {
			var pair [2]*childRun
			for trace := 0; trace < 2; trace++ {
				cr, err := runChild(self, w.Name, seed, seconds, trace, coflowd)
				if err != nil {
					fmt.Fprintln(os.Stderr, "coflowbench:", err)
					return 1
				}
				pair[trace] = cr
			}
			runs[w.Name] = append(runs[w.Name], pair)
		}
	}
	violations := 0
	fmt.Printf("\nsummary: seed %d, %d set(s) of %g s runs\n", seed, len(runs[workloads[0].Name]), seconds)
	for _, w := range workloads {
		fmt.Printf("%s\n", w.Name)
		set := runs[w.Name]
		for _, d := range endToEnd {
			vals := make([]float64, len(set))
			for i, p := range set {
				vals[i] = p[0].res.Metrics[d.Name].Value
			}
			spread := relSpread(vals)
			flag := ""
			if spread > d.Bound {
				flag = "  OUT OF BOUND"
				violations++
			}
			fmt.Printf("  %-16s %-9s %s  spread %.4f  bound %.3f%s\n", d.Name, d.Unit, fmtVals(vals), spread, d.Bound, flag)
		}
		for i, p := range set {
			r := p[0].res
			fmt.Printf("  set %d: %d/%d ops failed, correct %v; traced: correct %v\n", i+1, r.Failed, r.Attempted, r.Correct, p[1].res.Correct)
			if !r.Correct || !p[1].res.Correct {
				violations++
			}
		}
		for i := 1; i < len(set); i++ {
			for trace := 0; trace < 2; trace++ {
				for _, msg := range deterministicDiffs(set[0][trace].ops, set[i][trace].ops) {
					fmt.Printf("  set %d differs from set 1: %s\n", i+1, msg)
					violations++
				}
			}
		}
	}
	if violations > 0 {
		fmt.Printf("%d violation(s)\n", violations)
		return 1
	}
	return 0
}

func fmtVals(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%12.6g", x)
	}
	return strings.Join(parts, " ")
}

// deterministicDiffs compares the ops two sets both ran: failures,
// report digests, quality ratios and work counters must repeat exactly
// (only wall-clock readings may differ).
func deterministicDiffs(a, b []opRecord) []string {
	var out []string
	for i := 0; i < min(len(a), len(b)) && len(out) < 10; i++ {
		x, y := a[i], b[i]
		wx, wy := maps.Clone(x.Work), maps.Clone(y.Work)
		delete(wx, "sim.check_incremental_ms") // a time
		delete(wy, "sim.check_incremental_ms")
		switch {
		case (x.Err == "") != (y.Err == ""):
			out = append(out, fmt.Sprintf("op %d failed in one set only", i))
		case x.Digest != y.Digest:
			out = append(out, fmt.Sprintf("op %d report differs", i))
		case x.Ratio != y.Ratio:
			out = append(out, fmt.Sprintf("op %d ratio_vs_lb %v vs %v", i, x.Ratio, y.Ratio))
		case !maps.Equal(wx, wy):
			out = append(out, fmt.Sprintf("op %d work counters %v vs %v", i, wx, wy))
		}
	}
	return out
}
