package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// smokeScale shrinks every workload for the self-checks while keeping
// join_group_spill's fact table above the chunked-registration threshold.
const smokeScale = 0.35

// smokeSeconds is the timed length of each smoke run.
const smokeSeconds = 1

// benchSpec is the part of BENCHMARK.json the self-checks compare with.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSmoke runs every workload briefly on small inputs, end to end and
// traced, and checks that every metric BENCHMARK.json names is emitted
// with its unit and a valid name, that outputs match their references,
// that the spans account for the traced time within the tolerance, and
// that the correctness gate fires on a corrupted reference.
func runSmoke(base *config) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := *base
			cfg.scale, cfg.seconds, cfg.trace = smokeScale, smokeSeconds, trace
			rep, err := runWorkload(w, &cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printReport(w.name, rep)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if err := checkReport(rep, want); err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, trace, err)
			}
			if trace {
				if u := rep.Metrics["trace.unattributed_ratio"].Value; u > unattributedTolerance {
					return fmt.Errorf("%s: trace.unattributed_ratio %g exceeds the tolerance %g", w.name, u, unattributedTolerance)
				}
			}
		}
	}
	cfg := *base
	cfg.scale, cfg.seconds, cfg.corruptRefs = smokeScale, smokeSeconds, true
	rep, err := runWorkload(workloads[0], &cfg)
	if err != nil {
		return err
	}
	if rep.Correct || rep.Failed != rep.Attempted {
		return fmt.Errorf("correctness gate did not fire on corrupted references: correct=%v failed=%d of %d",
			rep.Correct, rep.Failed, rep.Attempted)
	}
	fmt.Println("# smoke: correctness gate fired on corrupted references")
	return nil
}

// checkReport checks that rep is correct and failure-free and carries
// exactly the wanted metrics, with their units and valid names.
func checkReport(rep *report, want []specMetric) error {
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	var got []string
	for name := range rep.Metrics {
		got = append(got, name)
	}
	for name := range rep.extra {
		if !validName.MatchString(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("emitted metrics %v, want %d named in BENCHMARK.json", got, len(want))
	}
	for _, m := range want {
		g, ok := rep.Metrics[m.Name]
		switch {
		case !validName.MatchString(m.Name):
			return fmt.Errorf("invalid metric name %q", m.Name)
		case !ok:
			return fmt.Errorf("metric %s not emitted", m.Name)
		case g.Unit != m.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	return nil
}
