// Package prom reads the Prometheus text format catsserve serves on
// /metrics, so the benchmark can take deltas of its counters over a
// timed phase.
package prom

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Sample values keyed by series: metric name plus its label set as
// printed, e.g. `cats_serve_wait_seconds_sum{tenant="default"}`.
type Sample map[string]float64

// Parse reads one exposition.
func Parse(r io.Reader) (Sample, error) {
	out := Sample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prom: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// Fetch reads url's exposition.
func Fetch(c *http.Client, url string) (Sample, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("prom: GET %s: %s", url, resp.Status)
	}
	return Parse(resp.Body)
}

// Sum adds the values of every series of metric whose labels contain
// each of the given `key="value"` pairs.
func (s Sample) Sum(metric string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		name, lbl, _ := strings.Cut(k, "{")
		if name != metric {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// Delta is after minus before for Sum(metric, labels...).
func Delta(before, after Sample, metric string, labels ...string) float64 {
	return after.Sum(metric, labels...) - before.Sum(metric, labels...)
}
