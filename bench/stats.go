package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median sorts a copy of vals and returns its middle (mean of the two
// middles for an even count); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// supportedTail reports whether a sample of n values supports the p-th
// percentile by the ten-samples-beyond rule: at least ten values must lie
// above the reported rank, or the "tail" is a handful of outliers.
func supportedTail(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= 10
}

// minSupport is the smallest sample count that supports the p-th
// percentile by that rule (20 for p50, 100 for p90, 1000 for p99).
func minSupport(p float64) int {
	n := 1
	for !supportedTail(n, p) {
		n++
	}
	return n
}

// spread is the interquartile range of vals as a share of their median,
// the steadiness measure the acceptance check uses (quartiles by the
// exclusive method, as Python's statistics.quantiles(n=4)).
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// promSample maps a Prometheus series (name plus its label set, verbatim)
// to its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format, keeping every
// sample line and skipping comments and lines it cannot parse.
func parseProm(r io.Reader) promSample {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// promDelta is a counter scrape pair: the values before and after a window.
type promDelta struct{ before, after promSample }

// of returns the increase of one exact series over the window.
func (d promDelta) of(series string) float64 { return d.after[series] - d.before[series] }

// sum returns the increase over the window of every series of the metric
// family name whose label set contains each of the given `key="value"`
// fragments.
func (d promDelta) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range d.after {
		if !seriesMatches(series, name, labels) {
			continue
		}
		total += v - d.before[series]
	}
	return total
}

func seriesMatches(series, name string, labels []string) bool {
	if series != name && !strings.HasPrefix(series, name+"{") {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(series, l) {
			return false
		}
	}
	return true
}

// ratio is a / b, or 0 when b is 0 (a layer that saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
