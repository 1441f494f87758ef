package plan

import "mddm/internal/obs"

// Planner metrics: queries by execution mode (every query is planned) and
// end-to-end planner latency, registered at init so scrape output is
// stable from the first query.
var (
	mPlanPlanned = obs.NewCounter("mddm_plan_queries_total",
		"Queries executed through the columnar planner, by mode.",
		obs.Label{Key: "mode", Value: ModePlanned})
	mPlanSeconds = obs.NewHistogram("mddm_plan_seconds",
		"End-to-end latency of planner-routed queries.",
		obs.DurationBuckets)
)
