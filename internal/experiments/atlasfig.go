package experiments

import (
	"fmt"
	"strings"

	"mmlpt/internal/atlas"
	"mmlpt/internal/stats"
)

// Aggregated-atlas variant of the Fig 12 router-size CDF: the same
// transitive-closure aggregation survey.RouterSizeCDFs computes from
// in-memory RouterView records, but sourced from a cross-trace atlas —
// so the figure can be regenerated from a snapshot file long after the
// survey process is gone, and keeps growing as later surveys merge in.

// AtlasRouterSizeCDF returns the aggregated router-size CDF from an
// atlas. For an atlas fed by one survey run's AtlasSink it equals the
// aggregated CDF survey.RouterSizeCDFs reports for that run.
func AtlasRouterSizeCDF(a *atlas.Atlas) *stats.CDF {
	sizes := a.RouterSizes()
	samples := make([]float64, len(sizes))
	for i, s := range sizes {
		samples[i] = float64(s)
	}
	return stats.NewCDF(samples)
}

// FormatFig12Sizes renders the aggregated router-size CDF in the Fig 12
// style, alongside a snapshot's merged-content stats. It takes router
// sizes rather than an atlas, so callers holding an indexed snapshot
// (cmd/atlas through the serve layer) need not rebuild one in memory.
func FormatFig12Sizes(st atlas.Stats, sizes []int) string {
	samples := make([]float64, len(sizes))
	for i, s := range sizes {
		samples[i] = float64(s)
	}
	cdf := stats.NewCDF(samples)
	var b strings.Builder
	b.WriteString("# Fig 12 (atlas): aggregated router size across all merged traces\n")
	fmt.Fprintf(&b, "## %s\n", st)
	fmt.Fprintf(&b, "## aggregated: n=%d, P(size=2)=%.2f, P(size<=10)=%.2f, max=%.0f (paper: >50 exists)\n",
		cdf.N(), cdf.At(2)-cdf.At(1), cdf.At(10), cdf.Max())
	b.WriteString(stats.FormatCDF(cdf, "aggregated"))
	return b.String()
}
