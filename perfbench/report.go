package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints: the correctness checks, the operation
// counts, reference notes and the metrics the run was asked for.
type report struct {
	workload  string
	attempted int
	failed    int
	checks    []checkResult
	notes     []string
	names     []string
	metrics   map[string]metricValue
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metricValue{}}
}

func (r *report) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, checkResult{name, ok, detail})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metric records a metric; a name set twice keeps the last value.
func (r *report) metric(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// write prints the human-readable lines and, last, the JSON result.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.name, c.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note  %s\n", n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
	for n, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
