package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mmlpt/internal/experiments"
	"mmlpt/internal/packet"
	"mmlpt/internal/survey"
)

// Workload sizes, per second of --seconds. They are fixed multiples of
// the measuring time, never rates measured at run time, so a seed fixes
// every input and every exact count of a run.
const (
	// ipPairsPerSecond sizes ip-survey: ~6000 pairs in a 10 s run.
	ipPairsPerSecond = 600
	// routerSecondsPerUnit sizes router-survey: one stratified unit of
	// routerUnitPairs pairs per this many seconds.
	routerSecondsPerUnit = 5
	// serveBasePairsPerSecond sizes the IP survey atlas-serve sets up:
	// ~10000 pairs in a 10 s run, which spreads the snapshot over more
	// shards than serve.DefaultCacheShards.
	serveBasePairsPerSecond = 1000
	// serveRouterPairs is the small router-level survey atlas-serve
	// merges in, so /v1/router answers go through the representative's
	// shard.
	serveRouterPairs = 8
	// publishDeltas is how many delta snapshots a survey publishes.
	publishDeltas = 8
)

// A router-survey is stratified by the giant cores (the width-48, -56
// and -96 alias-heavy templates) each pair crosses. Every stratum's
// share of a unit of routerUnitPairs pairs is its share of the
// load-balanced pairs of the fixed Internet, apportioned to whole pairs
// by largest remainder; since the Internet is fixed, so is the mix. A
// random draw of pairs instead put anywhere from 5 to 9 giant-core
// crossings in a 50-pair survey, and each one costs 1-4 s of alias
// resolution, so pairs/s swung by a fifth from seed to seed. The seed
// still draws which pairs fill each stratum.
type stratum struct {
	class string // the giant cores crossed, joined by "+"; "" for none
	n     int
}

// routerUnitPairs is the size of one router-survey unit. At 120 each
// giant-core count lies within 3% of its quota; at 100 the width-96 core
// got 4 pairs for a quota of 3.4.
const routerUnitPairs = 120

// apportion splits total among pools in proportion to their sizes:
// each gets the floor of its quota, and the pairs left over go to the
// largest remainders, ties to the earlier pool. The counts sum to total.
func apportion(sizes []int, total int) []int {
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	counts := make([]int, len(sizes))
	rem := make([]int, len(sizes))
	order := make([]int, len(sizes))
	left := total
	for i, s := range sizes {
		counts[i] = s * total / sum
		rem[i] = s * total % sum
		order[i] = i
		left -= counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// routerUnit lays out one unit over the strata pools: the giant-core
// strata first, in descending name order (the width-96 core first), so
// the two workers start on them and the cheap pairs fill in behind. Strata whose share rounds to no
// pair are left out.
func routerUnit(strata map[string][]survey.Pair, pairs int) []stratum {
	classes := make([]string, 0, len(strata))
	for c := range strata {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(a, b int) bool {
		if (classes[a] == "") != (classes[b] == "") {
			return classes[b] == ""
		}
		return classes[a] > classes[b]
	})
	sizes := make([]int, len(classes))
	for i, c := range classes {
		sizes[i] = len(strata[c])
	}
	var unit []stratum
	for i, n := range apportion(sizes, pairs) {
		if n > 0 {
			unit = append(unit, stratum{classes[i], n})
		}
	}
	return unit
}

// routerUnits sizes a router-survey for the given seconds: one unit of
// routerUnitPairs pairs per routerSecondsPerUnit. Below half a unit's
// time (the benchmark's own smoke tests) a single shrunk unit keeps one
// pair through the cheapest giant core and a share of the regular pairs.
func routerUnits(strata map[string][]survey.Pair, seconds float64) (units int, unit []stratum) {
	units = int(seconds/routerSecondsPerUnit + 0.5)
	if units >= 1 {
		return units, routerUnit(strata, routerUnitPairs)
	}
	regular := max(4, int(routerUnitPairs*seconds/routerSecondsPerUnit))
	return 1, []stratum{{"giant48", 1}, {"", regular}}
}

// routerStrata sorts the load-balanced pairs of a universe by the giant
// cores they cross.
func routerStrata(u *survey.Universe) map[string][]survey.Pair {
	idx := giantIndex(u)
	strata := make(map[string][]survey.Pair)
	for _, p := range u.Pairs {
		if !p.HasLB {
			continue
		}
		g := giantsCrossed(u, idx, p)
		sort.Strings(g)
		class := strings.Join(g, "+")
		strata[class] = append(strata[class], p)
	}
	return strata
}

// giantIndex maps a universe's giant-core templates to an interior
// address each: a path crosses a giant core iff its ground-truth graph
// holds that address.
func giantIndex(u *survey.Universe) map[packet.Addr]string {
	idx := make(map[packet.Addr]string)
	for _, t := range u.Templates {
		switch t.Class {
		case "giant48", "giant56", "giant96":
			idx[t.Frag.V(t.Frag.Hop(1)[0]).Addr] = t.Class
		}
	}
	return idx
}

// giantsCrossed lists the giant cores a pair's ground-truth path crosses.
func giantsCrossed(u *survey.Universe, idx map[packet.Addr]string, p survey.Pair) []string {
	var out []string
	g := u.Net.Path(p.Src, p.Dst).Graph
	for i := range g.Vertices {
		if class, ok := idx[g.Vertices[i].Addr]; ok {
			out = append(out, class)
		}
	}
	return out
}

// internetSeed fixes the synthetic Internet every workload surveys. A
// run's --seed draws which of its pairs are traced and seeds the
// tracers, not the topology. With the topology seeded too, the few wide
// load-balanced templates that happen to be popular in one universe
// moved probes/pair by 10-15% between seeds, and no pair count averages
// that away.
const internetSeed = 1

// universeFactor is how many times more pairs the Internet holds than
// ip-survey and atlas-serve trace.
const universeFactor = 2

// routerUniversePairs sizes the Internet router-survey draws its strata
// from: enough load-balanced pairs through each giant core for many
// units.
const routerUniversePairs = 2000

// plan derives the universe and run configuration of a survey level as
// cmd/survey plans them, over the fixed Internet, with the run's seed
// driving the tracers.
func plan(level string, pairs int, seed uint64, workers int) (*survey.Universe, survey.RunConfig, error) {
	u, rc, err := experiments.PlanSurvey(level, experiments.SurveyConfig{Pairs: pairs, Seed: internetSeed, Workers: workers})
	rc.Trace.Seed = seed
	return u, rc, err
}

// subUniverse is u restricted to the given pairs, re-indexed from 0.
func subUniverse(u *survey.Universe, pairs []survey.Pair) *survey.Universe {
	return &survey.Universe{Cfg: u.Cfg, Net: u.Net, Pairs: pairs, Templates: u.Templates, RouterOf: u.RouterOf}
}

// pick returns pairs[i] for each index, in ascending index order.
func pick(pairs []survey.Pair, idx []int) []survey.Pair {
	idx = append([]int(nil), idx...)
	sort.Ints(idx)
	out := make([]survey.Pair, len(idx))
	for i, k := range idx {
		out[i] = pairs[k]
	}
	return out
}

// ipSurveyDraw draws the traced pairs of the Sec 5.1 IP-level survey
// (the MDA over every pair) from its planned universe: `pairs` of them,
// with the seed.
func ipSurveyDraw(u *survey.Universe, rc survey.RunConfig, seed uint64, pairs int) []surveyPart {
	rng := rand.New(rand.NewSource(int64(seed)))
	return []surveyPart{{subUniverse(u, pick(u.Pairs, rng.Perm(len(u.Pairs))[:pairs])), rc}}
}

// routerSurveyDraw draws the pairs of the Sec 5.2 router-level survey
// (multilevel, 10 rounds of 30 probes, load-balanced pairs only) from
// its planned universe: the stratified units routerUnits sizes for
// `seconds`, with the seed.
func routerSurveyDraw(u *survey.Universe, rc survey.RunConfig, seed uint64, seconds float64) ([]surveyPart, error) {
	strata := routerStrata(u)
	units, unit := routerUnits(strata, seconds)
	rng := rand.New(rand.NewSource(int64(seed)))
	drawn := make(map[string][]survey.Pair)
	for _, s := range unit {
		pool := strata[s.class]
		if len(pool) < s.n*units {
			return nil, fmt.Errorf("the Internet holds %d pairs through %q, %d units need %d", len(pool), s.class, units, s.n*units)
		}
		drawn[s.class] = pick(pool, rng.Perm(len(pool))[:s.n*units])
	}
	var picked []survey.Pair
	for k := 0; k < units; k++ {
		for _, s := range unit {
			picked = append(picked, drawn[s.class][k*s.n:(k+1)*s.n]...)
		}
	}
	return []surveyPart{{subUniverse(u, picked), rc}}, nil
}

// atlasServePlan is the survey atlas-serve sets up: an IP-level survey
// of a seeded draw of basePairs pairs, then a router-level survey of
// serveRouterPairs more load-balanced pairs that cross no giant core,
// both feeding one atlas.
func atlasServePlan(seed uint64, basePairs, workers int) ([]surveyPart, error) {
	u, ipRC, err := plan("ip", universeFactor*basePairs, seed, workers)
	if err != nil {
		return nil, err
	}
	_, routerRC, err := plan("router", 1, seed, workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	perm := rng.Perm(len(u.Pairs))
	idx := giantIndex(u)
	var routers []int
	for _, k := range perm[basePairs:] {
		if p := u.Pairs[k]; p.HasLB && len(giantsCrossed(u, idx, p)) == 0 {
			routers = append(routers, k)
		}
		if len(routers) == serveRouterPairs {
			break
		}
	}
	if len(routers) < serveRouterPairs {
		return nil, fmt.Errorf("the Internet holds too few load-balanced pairs without a giant core")
	}
	sub := subUniverse(u, append(pick(u.Pairs, perm[:basePairs]), pick(u.Pairs, routers)...))
	ipRC.SpanCount = basePairs
	jobs := survey.JobPairs(sub, routerRC)
	routerRC.SpanStart, routerRC.SpanCount = len(jobs)-serveRouterPairs, serveRouterPairs
	return []surveyPart{{sub, ipRC}, {sub, routerRC}}, nil
}
