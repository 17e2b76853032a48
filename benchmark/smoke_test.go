package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func buildAtlasd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "atlasd")
	out, err := exec.Command("go", "build", "-o", bin, "mmlpt/cmd/atlasd").CombinedOutput()
	if err != nil {
		t.Fatalf("building atlasd: %v\n%s", err, out)
	}
	return bin
}

func names(ms map[string]metric) []string {
	var out []string
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced and
// traced, and checks the run is correct and reports exactly the metrics
// BENCHMARK.json declares, with their units and finite values, in a
// result that encodes as the JSON line.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	bin := buildAtlasd(t)
	units := make(map[string]string)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.Name, 3, 0.5, traced, bin, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: the result line does not encode: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d checks failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := specNames(spec.EndToEnd)
			if traced {
				want = specNames(spec.PerLayer)
			}
			if got := names(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s traced=%v reports %v, BENCHMARK.json declares %v", w.Name, traced, got, want)
			}
			for n, m := range res.Metrics {
				if m.Unit != units[n] {
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.Name, n, m.Unit, units[n])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v, want a finite value", w.Name, traced, n, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want a positive value", w.Name, n, m.Value)
				}
			}
		}
	}
}

// TestSeedReproducesInputs checks the same seed plans the same survey
// and a different seed a different one.
func TestSeedReproducesInputs(t *testing.T) {
	plan := func(seed uint64) []int {
		u, rc, err := plan("router", routerUniversePairs, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := routerSurveyDraw(u, rc, seed, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var dsts []int
		for _, p := range parts[0].u.Pairs {
			dsts = append(dsts, int(p.Dst))
		}
		return dsts
	}
	a, b, c := plan(1), plan(1), plan(2)
	if !slices.Equal(a, b) {
		t.Errorf("seed 1 planned %v, then %v", a, b)
	}
	if slices.Equal(a, c) {
		t.Errorf("seeds 1 and 2 planned the same pairs %v", a)
	}
}

func TestPerLayerListMatchesBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	var mine []struct{ Name, Unit string }
	for _, m := range perLayer {
		mine = append(mine, struct{ Name, Unit string }{m.name, m.unit})
	}
	if got, want := specNames(mine), specNames(spec.PerLayer); !slices.Equal(got, want) {
		t.Errorf("perLayer lists %v, BENCHMARK.json %v", got, want)
	}
}
