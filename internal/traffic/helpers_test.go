package traffic

import (
	"mddm/internal/batch"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/serve"
	"mddm/internal/temporal"
	"time"
)

var serveRef = temporal.MustDate("01/01/1999")

func newPatientMO() (*core.MO, error) {
	return casestudy.BuildPatientMO(casestudy.DefaultOptions())
}

// batchedLimits mirrors the mdserve -batch configuration the committed
// mixes are written against.
func batchedLimits() serve.Limits {
	return serve.Limits{
		ResultCacheBytes: 1 << 20,
		Batching: batch.Config{
			Enabled:      true,
			GatherWindow: 5 * time.Millisecond,
		},
	}
}
