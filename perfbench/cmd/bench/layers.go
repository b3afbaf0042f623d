package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/perfbench/internal/prom"
)

// layerUnits is every per-layer metric a traced run prints, with its
// unit. The trace command measures most of them in-process; the rest
// are read from outside the program here.
var layerUnits = map[string]string{
	"dataset.jsonl_decode_us_per_item":     "us",
	"dataset.jsonl_decode_allocs_per_item": "allocs",
	"tokenize.segment_ns_per_comment":      "ns",
	"tokenize.segmentations_per_comment":   "count",
	"sentiment.score_ns_per_comment":       "ns",
	"sentiment.train_ms":                   "ms",
	"features.analyze_us_per_item":         "us",
	"features.rest_ns_per_comment":         "ns",
	"features.allocs_per_item":             "allocs",
	"lexicon.expand_ms":                    "ms",
	"gbt.predict_ns_per_item":              "ns",
	"gbt.fit_ms":                           "ms",
	"word2vec.train_s":                     "s",
	"core.detect_cpu_us_per_item":          "us",
	"core.scored_per_analyzed":             "ratio",
	"core.cores_busy":                      "cores",
	"core.snapshot_encode_ms":              "ms",
	"core.snapshot_decode_ms":              "ms",
	"core.residual_us_per_item":            "us",
	"service.request_decode_us_per_item":   "us",
	"service.response_encode_us_per_item":  "us",
	"service.handler_ms_mean":              "ms",
	"service.transport_ms_mean":            "ms",
	"catsserve.boot_ms":                    "ms",
	"dispatch.queue_wait_ms_mean":          "ms",
	"dispatch.items_per_batch":             "items",
	"dispatch.coalesced_per_item":          "ratio",
	"dispatch.shed":                        "count",
	"registry.install_ms":                  "ms",
	"registry.promotions":                  "count",
	"trainer.cycle_s":                      "s",
	"trainer.extract_s":                    "s",
	"trainer.analyses_per_window_item":     "count",
	"trace.overhead_pct":                   "%",
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

// serverLayers reads the layers inside catsserve from deltas of its
// /metrics counters between two readings, for the detect calls made in
// between.
func serverLayers(before, after prom.Sample, latencies []float64, items int, boot []float64) map[string]float64 {
	d := func(metric string, labels ...string) float64 { return prom.Delta(before, after, metric, labels...) }
	route := `route="/v1/detect"`
	handler := 1e3 * div(d("cats_http_request_seconds_sum", route), d("cats_http_request_seconds_count", route))
	return map[string]float64{
		"service.handler_ms_mean":     handler,
		"service.transport_ms_mean":   mean(latencies) - handler,
		"dispatch.queue_wait_ms_mean": 1e3 * div(d("cats_serve_wait_seconds_sum"), d("cats_serve_wait_seconds_count")),
		"dispatch.items_per_batch":    div(d("cats_serve_batch_size_sum"), d("cats_serve_batch_size_count")),
		"dispatch.coalesced_per_item": div(d("cats_serve_coalesced_total"), float64(items)),
		"dispatch.shed":               d("cats_serve_shed_total"),
		"registry.promotions":         d("cats_trainer_cycles_total", `outcome="promoted"`),
		"catsserve.boot_ms":           1e3 * median(boot),
	}
}

// overheadPct is the traced phase's wall time per item over the
// untraced one's, less one, in percent.
func overheadPct(untraced, traced time.Duration, nu, nt int) float64 {
	u := div(untraced.Seconds(), float64(nu))
	return 100 * (div(traced.Seconds(), float64(nt)) - u) / u
}

// serveLayers gathers what a serve workload's traced run reads from
// outside catsserve: its /metrics over both halves of the timed phase,
// and the untraced half's CPU per item and cores busy.
func serveLayers(ph, tr *phase, boot []float64) map[string]float64 {
	m := serverLayers(ph.before, tr.after, append(append([]float64(nil), ph.latencies...), tr.latencies...),
		ph.items+tr.items, boot)
	m["core.cores_busy"] = ph.cpu.Seconds() / ph.net.Seconds()
	m["trace.overhead_pct"] = overheadPct(ph.net, tr.net, ph.items, tr.items)
	m["_cpu_us_per_item"] = ph.cpu.Seconds() * 1e6 / float64(ph.items)
	return m
}

// layers finishes a traced run: it runs the trace command on the
// workload's inputs, merges its metrics with those read from outside,
// derives the residual, and sets every per-layer metric.
func (rep *report) layers(o *options, snapshot string, outside map[string]float64) error {
	cmd := exec.Command(o.tracer, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-work", o.work, "-snapshot", snapshot)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("trace command: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	m := map[string]float64{}
	if err := json.Unmarshal(lines[len(lines)-1], &m); err != nil {
		return fmt.Errorf("trace command output: %v", err)
	}
	for k, v := range outside {
		m[k] = v
	}
	// Residual: end-to-end CPU per answered item less what the layers
	// account for per answered item.
	analyzed, scored := m["_analyzed_share"], m["_scored_share"]
	perItem := analyzed*m["features.analyze_us_per_item"] + scored*m["gbt.predict_ns_per_item"]/1e3
	if o.workload == "scan-crawl" {
		perItem += m["dataset.jsonl_decode_us_per_item"]
	} else {
		perItem = (1-m["dispatch.coalesced_per_item"])*perItem +
			m["service.request_decode_us_per_item"] + m["service.response_encode_us_per_item"]
	}
	m["core.residual_us_per_item"] = m["_cpu_us_per_item"] - perItem
	rep.details["layers"] = m
	for name, unit := range layerUnits {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("traced run measured no %s", name)
		}
		rep.set(name, unit, v)
	}
	for k := range m {
		if _, ok := layerUnits[k]; !ok && !strings.HasPrefix(k, "_") {
			return fmt.Errorf("traced run measured unlisted metric %s", k)
		}
	}
	return o.rec.WriteFile(o.path("client_spans.jsonl"))
}
