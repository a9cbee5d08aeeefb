package coflow

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// figure2Instance builds the running example of Section 2 (Figures
// 2–4): four unit-weight coflows on the s/v1..v3/t network; three with
// demand 1 from v_i to t and one with demand 3 from s to t.
func figure2Instance() *Instance {
	g := graph.Figure2()
	s, t := g.MustNode("s"), g.MustNode("t")
	in := &Instance{Graph: g}
	for i := 1; i <= 3; i++ {
		v := g.MustNode("v" + string(rune('0'+i)))
		in.Coflows = append(in.Coflows, Coflow{
			ID: i - 1, Weight: 1,
			Flows: []Flow{{Source: v, Sink: t, Demand: 1}},
		})
	}
	in.Coflows = append(in.Coflows, Coflow{
		ID: 3, Weight: 1,
		Flows: []Flow{{Source: s, Sink: t, Demand: 3}},
	})
	return in
}

func TestValidateFreePath(t *testing.T) {
	in := figure2Instance()
	if err := in.Validate(FreePath); err != nil {
		t.Fatal(err)
	}
	// Single path requires paths.
	if err := in.Validate(SinglePath); err == nil {
		t.Fatal("expected error: no paths assigned")
	}
}

func TestAssignRandomShortestPaths(t *testing.T) {
	in := figure2Instance()
	rng := rand.New(rand.NewSource(3))
	if err := in.AssignRandomShortestPaths(rng); err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(SinglePath); err != nil {
		t.Fatal(err)
	}
	// Paths of the v_i→t coflows are single-hop.
	for i := 0; i < 3; i++ {
		if len(in.Coflows[i].Flows[0].Path) != 1 {
			t.Fatalf("coflow %d path length %d, want 1", i, len(in.Coflows[i].Flows[0].Path))
		}
	}
	// Existing paths are preserved.
	before := append([]graph.EdgeID(nil), in.Coflows[3].Flows[0].Path...)
	if err := in.AssignRandomShortestPaths(rng); err != nil {
		t.Fatal(err)
	}
	after := in.Coflows[3].Flows[0].Path
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("existing path was overwritten")
		}
	}
}

func TestAssignPathUnreachable(t *testing.T) {
	g := graph.Gadget(2)
	x0, _ := graph.GadgetPair(g, 0)
	_, y1 := graph.GadgetPair(g, 1)
	in := &Instance{Graph: g, Coflows: []Coflow{
		{ID: 0, Weight: 1, Flows: []Flow{{Source: x0, Sink: y1, Demand: 1}}},
	}}
	if err := in.AssignRandomShortestPaths(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for unreachable sink")
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	g := graph.Figure2()
	s, tt := g.MustNode("s"), g.MustNode("t")
	base := func() *Instance {
		return &Instance{Graph: g, Coflows: []Coflow{
			{ID: 0, Weight: 1, Flows: []Flow{{Source: s, Sink: tt, Demand: 1}}},
		}}
	}
	cases := []struct {
		name   string
		mutate func(*Instance)
	}{
		{"zero weight", func(in *Instance) { in.Coflows[0].Weight = 0 }},
		{"negative release", func(in *Instance) { in.Coflows[0].Release = -1 }},
		{"no flows", func(in *Instance) { in.Coflows[0].Flows = nil }},
		{"zero demand", func(in *Instance) { in.Coflows[0].Flows[0].Demand = 0 }},
		{"self loop", func(in *Instance) { in.Coflows[0].Flows[0].Sink = s }},
	}
	for _, tc := range cases {
		in := base()
		tc.mutate(in)
		if err := in.Validate(FreePath); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if err := (&Instance{}).Validate(FreePath); err == nil {
		t.Error("nil graph: expected error")
	}
	if err := (&Instance{Graph: g}).Validate(FreePath); err == nil {
		t.Error("no coflows: expected error")
	}
}

func TestInstanceStats(t *testing.T) {
	in := figure2Instance()
	if n := in.NumFlows(); n != 4 {
		t.Fatalf("NumFlows = %d, want 4", n)
	}
	if d := in.TotalDemand(); d != 6 {
		t.Fatalf("TotalDemand = %v, want 6", d)
	}
	if r := in.MaxRelease(); r != 0 {
		t.Fatalf("MaxRelease = %v, want 0", r)
	}
	in.Coflows[2].Release = 5
	in.Coflows[1].Flows[0].Release = 9
	if r := in.MaxRelease(); r != 9 {
		t.Fatalf("MaxRelease = %v, want 9", r)
	}
	if er := in.Coflows[1].EffectiveRelease(0); er != 9 {
		t.Fatalf("EffectiveRelease = %v, want 9", er)
	}
}

func TestHorizonUpperBound(t *testing.T) {
	in := figure2Instance()
	h := in.HorizonUpperBound(FreePath)
	// Unit capacities: total demand 6 at rate ≥ 1 each → bound 6.
	if h < 6-1e-9 {
		t.Fatalf("horizon %v too small", h)
	}
	if math.IsInf(h, 1) {
		t.Fatal("horizon must be finite")
	}
	// Single-path bound uses path bottlenecks.
	if err := in.AssignRandomShortestPaths(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	hs := in.HorizonUpperBound(SinglePath)
	if hs < 6-1e-9 || math.IsInf(hs, 1) {
		t.Fatalf("single-path horizon %v", hs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := figure2Instance()
	in.Coflows[0].Release = 2.5
	in.Coflows[0].Flows[0].Release = 3.5
	if err := in.AssignRandomShortestPaths(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFlows() != in.NumFlows() || back.Graph.NumEdges() != in.Graph.NumEdges() {
		t.Fatal("round trip changed shape")
	}
	if back.Coflows[0].Release != 2.5 || back.Coflows[0].Flows[0].Release != 3.5 {
		t.Fatal("round trip lost release times")
	}
	if err := back.Validate(SinglePath); err != nil {
		t.Fatal(err)
	}
	// Paths survived.
	for i := range in.Coflows {
		a := in.Coflows[i].Flows[0].Path
		b := back.Coflows[i].Flows[0].Path
		if len(a) != len(b) {
			t.Fatalf("coflow %d path length changed", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("coflow %d path changed", i)
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []string{
		`{"nodes":["a"],"edges":[{"from":"a","to":"zz","capacity":1}]}`,
		`{"nodes":["a"],"edges":[{"from":"zz","to":"a","capacity":1}]}`,
		`{"nodes":["a","b"],"edges":[{"from":"a","to":"b","capacity":0}]}`,
		`{"nodes":["a","b"],"edges":[],"coflows":[{"id":0,"weight":1,"flows":[{"source":"zz","sink":"b","demand":1}]}]}`,
		`{"nodes":["a","b"],"edges":[],"coflows":[{"id":0,"weight":1,"flows":[{"source":"a","sink":"zz","demand":1}]}]}`,
		`{"nodes":["a","b"],"edges":[],"coflows":[{"id":0,"weight":1,"flows":[{"source":"a","sink":"b","demand":1,"path":[7]}]}]}`,
		`not json`,
	}
	for _, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("ReadJSON(%q) succeeded, want error", src)
		}
	}
}

func TestModelString(t *testing.T) {
	if SinglePath.String() != "single-path" || FreePath.String() != "free-path" {
		t.Fatal("model names wrong")
	}
	if Model(7).String() == "" {
		t.Fatal("unknown model should still render")
	}
}

// TestJSONRoundTripExact: the encoding is lossless — encoding,
// decoding, and re-encoding an instance reproduces the identical
// bytes, with Release times on both the coflow and the flow (the
// fields the online simulator depends on) set to distinct values so a
// dropped field cannot cancel out.
func TestJSONRoundTripExact(t *testing.T) {
	in := figure2Instance()
	for i := range in.Coflows {
		in.Coflows[i].Release = float64(i) * 1.25
		for j := range in.Coflows[i].Flows {
			in.Coflows[i].Flows[j].Release = float64(i) + float64(j)*0.5
		}
	}
	if err := in.AssignRandomShortestPaths(rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	if err := in.AssignKShortestPaths(2); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := in.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Coflows {
		if back.Coflows[i].Release != in.Coflows[i].Release {
			t.Fatalf("coflow %d release %v != %v", i, back.Coflows[i].Release, in.Coflows[i].Release)
		}
		for j := range in.Coflows[i].Flows {
			if back.Coflows[i].Flows[j].Release != in.Coflows[i].Flows[j].Release {
				t.Fatalf("coflow %d flow %d release changed", i, j)
			}
		}
	}
	var second bytes.Buffer
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding differs:\n%s\nvs\n%s", first.String(), second.String())
	}
}
