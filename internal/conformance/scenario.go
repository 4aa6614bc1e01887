package conformance

import (
	"fmt"

	"repro/internal/trace"
)

// Scenario-matrix fidelity harness for conditional (scenario-labeled)
// generation: each scenario label's synthetic slice is scored with the
// same per-field JSD/EMD rankers as unconditional generation, against the
// matching label slice of a reference trace (the training trace for
// absolute fidelity, or the reference path's labeled output to pin the
// fast path distributionally).

// MinScenarioRecords is the smallest reference slice worth scoring:
// below this the sample-vs-sample JSD noise floor swamps any signal, so
// thinner scenarios are reported as skipped rather than scored.
const MinScenarioRecords = 30

// ScenarioSlice is one scenario label's row of the matrix.
type ScenarioSlice struct {
	Label      trace.Label
	RefRecords int // reference slice size
	GenRecords int // generated slice size
	Report     Report
	// Skipped marks labels whose reference slice was thinner than
	// MinScenarioRecords; their Report is zero-valued.
	Skipped bool
}

// Matrix is a scenario-conditioned fidelity report: one scored slice per
// requested label.
type Matrix struct {
	Slices []ScenarioSlice
}

// FilterFlowLabel returns the sub-trace of records carrying the given
// scenario label, preserving order.
func FilterFlowLabel(t *trace.FlowTrace, label trace.Label) *trace.FlowTrace {
	out := &trace.FlowTrace{}
	for _, r := range t.Records {
		if r.Label == label {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// ScenarioMatrix scores conditional generation label by label: for every
// requested label it slices ref, asks gen for a synthetic trace of the
// slice's size conditioned on that label, and runs FlowReport between the
// two slices. gen is typically a closure over a FlowSynthesizer's (or
// its Fast snapshot's) GenerateLabeled. Labels with fewer than
// MinScenarioRecords reference records are marked Skipped; a gen error
// aborts the matrix.
func ScenarioMatrix(ref *trace.FlowTrace, labels []trace.Label, gen func(label trace.Label, n int) (*trace.FlowTrace, error)) (Matrix, error) {
	var m Matrix
	for _, label := range labels {
		refSlice := FilterFlowLabel(ref, label)
		row := ScenarioSlice{Label: label, RefRecords: len(refSlice.Records)}
		if len(refSlice.Records) < MinScenarioRecords {
			row.Skipped = true
			m.Slices = append(m.Slices, row)
			continue
		}
		genSlice, err := gen(label, len(refSlice.Records))
		if err != nil {
			return Matrix{}, fmt.Errorf("conformance: scenario %v: %w", label, err)
		}
		row.GenRecords = len(genSlice.Records)
		row.Report = FlowReport(refSlice, genSlice)
		m.Slices = append(m.Slices, row)
	}
	return m, nil
}

// Check returns every scored slice's threshold violations, with each
// field name prefixed by its scenario label ("dos/DP"); skipped slices
// contribute nothing. An empty result means every scored scenario
// conforms.
func (m Matrix) Check(th Thresholds) []Violation {
	var out []Violation
	for _, row := range m.Slices {
		if row.Skipped {
			continue
		}
		for _, v := range row.Report.Check(th) {
			v.Field = fmt.Sprintf("%s/%s", row.Label, v.Field)
			out = append(out, v)
		}
	}
	return out
}
