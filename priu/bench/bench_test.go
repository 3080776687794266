package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gbm"
)

// tinyWorkload shrinks a registered workload far enough for unit tests.
func tinyWorkload(t *testing.T, id string) Workload {
	t.Helper()
	w, err := WorkloadByID(id)
	if err != nil {
		t.Fatal(err)
	}
	w.N = 400
	w.Cfg.Iterations = 30
	if w.Cfg.BatchSize > 100 {
		w.Cfg.BatchSize = 100
	}
	return w
}

func TestWorkloadRegistryComplete(t *testing.T) {
	want := []string{
		"sgemm-original", "sgemm-extended", "cov-small", "cov-large1",
		"cov-large2", "higgs", "heartbeat", "rcv1", "cifar10",
		"cov-extended", "higgs-extended", "heartbeat-extended",
	}
	for _, id := range want {
		if _, err := WorkloadByID(id); err != nil {
			t.Fatalf("missing workload %s: %v", id, err)
		}
	}
	if _, err := WorkloadByID("nope"); err == nil {
		t.Fatal("expected unknown-workload error")
	}
}

func TestExperimentRegistryCoversAllArtifacts(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig1a", "fig1b", "fig2a", "fig2b", "fig2c",
		"fig3a", "fig3b", "fig3c", "fig4",
		"ablation-svdrank", "ablation-ts", "ablation-dx",
	}
	for _, id := range want {
		e, ok := Registry[id]
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		if e.Run == nil || e.Description == "" {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if len(IDs()) != len(Registry) {
		t.Fatal("IDs() length mismatch")
	}
}

func TestScale(t *testing.T) {
	w, err := WorkloadByID("higgs")
	if err != nil {
		t.Fatal(err)
	}
	s := w.Scale(0.1)
	if s.N >= w.N || s.Cfg.Iterations >= w.Cfg.Iterations {
		t.Fatalf("Scale did not shrink: %+v", s)
	}
	if s.Cfg.BatchSize > s.N {
		t.Fatal("Scale left batch larger than n")
	}
	// Out-of-range scale is a no-op.
	if w.Scale(0).N != w.N || w.Scale(2).N != w.N {
		t.Fatal("Scale should ignore out-of-range factors")
	}
}

func TestPrepareAndSweepLinear(t *testing.T) {
	p, err := Prepare(tinyWorkload(t, "sgemm-original"))
	if err != nil {
		t.Fatal(err)
	}
	if p.CaptureTime() <= 0 {
		t.Fatal("capture time not recorded")
	}
	results, err := p.Sweep([]float64{0.01, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// 5 methods × 2 rates.
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.UpdateTime <= 0 {
			t.Fatalf("non-positive update time for %s", r.Method)
		}
		if r.Method != MethodBaseL && r.Comparison.Coordinates == 0 {
			t.Fatalf("missing comparison for %s", r.Method)
		}
	}
	// PrIU must track BaseL closely at 1% deletion.
	for _, r := range results {
		if r.Method == MethodPrIU && r.DeletionRate == 0.01 && r.Comparison.Cosine < 0.99 {
			t.Fatalf("PrIU cosine %v at 1%% deletion", r.Comparison.Cosine)
		}
	}
}

func TestPrepareBinaryAndMultiAndSparse(t *testing.T) {
	for _, id := range []string{"higgs", "cov-small", "rcv1"} {
		w := tinyWorkload(t, id)
		p, err := Prepare(w)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		removed := p.PickRemoval(0.01, 1)
		if len(removed) < 1 {
			t.Fatalf("%s: empty removal", id)
		}
		base, _, err := p.RunUpdate(MethodBaseL, removed)
		if err != nil {
			t.Fatalf("%s BaseL: %v", id, err)
		}
		upd, _, err := p.RunUpdate(MethodPrIU, removed)
		if err != nil {
			t.Fatalf("%s PrIU: %v", id, err)
		}
		if base == nil || upd == nil {
			t.Fatalf("%s: nil models", id)
		}
		if _, err := p.Evaluate(upd); err != nil {
			t.Fatalf("%s Evaluate: %v", id, err)
		}
		if fp := p.FootprintBytes(MethodPrIU); fp <= p.FootprintBytes(MethodBaseL) {
			t.Fatalf("%s: PrIU footprint %d not above BaseL %d", id, fp, p.FootprintBytes(MethodBaseL))
		}
		// BaseL's schedule bytes are computed, not drawn: they must equal
		// the footprint of the schedule the captures use.
		sched, err := gbm.NewSchedule(p.TrainingSet().N(), p.W.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if p.schedBytes != sched.FootprintBytes() {
			t.Fatalf("%s: schedule bytes %d, drawn schedule %d", id, p.schedBytes, sched.FootprintBytes())
		}
	}
}

func TestMethodsPerKind(t *testing.T) {
	lin, err := Prepare(tinyWorkload(t, "sgemm-original"))
	if err != nil {
		t.Fatal(err)
	}
	if got := lin.Methods(); len(got) != 5 {
		t.Fatalf("linear methods = %v", got)
	}
	sp, err := Prepare(tinyWorkload(t, "rcv1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Methods(); len(got) != 2 {
		t.Fatalf("sparse methods = %v", got)
	}
	// Sparse workloads reject dense-only methods.
	if _, _, err := sp.RunUpdate(MethodINFL, []int{0}); err == nil {
		t.Fatal("expected method-not-applicable error")
	}
}

func TestRunTableExperiments(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		var buf bytes.Buffer
		if err := Registry[id].Run(&buf, 0.05); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
	// Table 1 must list all six schemas.
	var buf bytes.Buffer
	if err := Registry["table1"].Run(&buf, 0.05); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SGEMM", "Cov", "HIGGS", "RCV1", "Heartbeat", "cifar10"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("table1 missing %s:\n%s", name, buf.String())
		}
	}
}

func TestRunSweepExperimentSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := Registry["fig1a"].Run(&buf, 0.03); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range []string{"BaseL", "PrIU", "PrIU-opt", "Closed-form", "INFL"} {
		if !strings.Contains(out, m) {
			t.Fatalf("fig1a output missing %s:\n%s", m, out)
		}
	}
}

func TestDeletionRatesMatchPaperRange(t *testing.T) {
	if DeletionRates[0] != 0.0001 || DeletionRates[len(DeletionRates)-1] != 0.2 {
		t.Fatalf("DeletionRates = %v", DeletionRates)
	}
}

func TestPickRemovalBounds(t *testing.T) {
	p, err := Prepare(tinyWorkload(t, "sgemm-original"))
	if err != nil {
		t.Fatal(err)
	}
	r := p.PickRemoval(0.0000001, 1)
	if len(r) != 1 {
		t.Fatalf("tiny rate should remove 1, got %d", len(r))
	}
	r = p.PickRemoval(5, 1) // silly rate clamps to n-1
	if len(r) != p.N()-1 {
		t.Fatalf("huge rate should clamp to n-1, got %d", len(r))
	}
}
