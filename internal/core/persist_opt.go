package core

import (
	"fmt"
	"io"

	"repro/internal/binio"
	"repro/internal/dataset"
	"repro/internal/gbm"
)

// PrIU-opt persistence. The opt families keep eigendecompositions that would
// roughly double the snapshot size but are cheap to rebuild (one NewEigenSym
// per class over an m×m matrix), so the streams persist only the model and
// the non-rebuildable provenance — the stabilized linearization coefficients
// and, for logistic/multinomial, the embedded ts-truncated PrIU capture — and
// the loaders rebuild the eigenbases through the same kernels capture used
// (stabilizedEigens for C*, GramInto/MulVecTInto for linear's XᵀX and XᵀY).
// Their reductions plan chunks from the shape alone, so the rebuild is
// bitwise-identical at every size, worker count and work cutoff, and a
// restored updater reproduces the original's Update output exactly. The
// logistic and multinomial loaders also rebuild the row → (iteration,
// position) occurrence index the what-if cursors set their phase-1 removals
// through; like the eigenbases, it is derived and never persisted.
//
// Each family gets its own magic so a stream can never be decoded by the
// wrong loader: "PRLO" (linear-opt), "PRBO" (logistic-opt), "PRMO"
// (multinomial-opt).

const (
	linearOptMagic      = "PRLO"
	logisticOptMagic    = "PRBO"
	multinomialOptMagic = "PRMO"
)

// writeOptHeader emits the shared opt-stream prefix: magic, version, dataset
// fingerprint and the full-horizon training config.
func writeOptHeader(bw *binio.Writer, magic string, fp uint64, cfg gbm.Config) {
	bw.Bytes([]byte(magic))
	bw.U64(persistVersion)
	bw.U64(fp)
	writeConfig(bw, cfg)
}

// readOptHeader consumes and verifies the prefix written by writeOptHeader.
func readOptHeader(r io.Reader, magic string, wantFP uint64) (*binio.Reader, gbm.Config, error) {
	br := binio.NewReader(r)
	if err := br.Magic(magic); err != nil {
		return nil, gbm.Config{}, fmt.Errorf("core: %w", err)
	}
	if v := br.U64(); v != persistVersion {
		return nil, gbm.Config{}, fmt.Errorf("core: unsupported version %d", v)
	}
	if fp := br.U64(); fp != wantFP {
		return nil, gbm.Config{}, fmt.Errorf("core: cache fingerprint does not match dataset")
	}
	cfg := readConfig(br)
	if br.Err != nil {
		return nil, gbm.Config{}, br.Err
	}
	if cfg.Iterations < 1 || cfg.Iterations > maxPersistIterations {
		return nil, gbm.Config{}, fmt.Errorf("core: persisted iteration count %d out of bounds", cfg.Iterations)
	}
	return br, cfg, nil
}

// WriteTo serializes the PrIU-opt linear state: only the config and the
// GD-approximation model. The eigendecomposition of M = XᵀX and the vector
// N = XᵀY are rebuilt from the dataset on load.
func (lo *LinearOpt) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	writeOptHeader(bw, linearOptMagic, fingerprint(lo.data), lo.cfg)
	writeDense(bw, lo.model.W)
	return 0, bw.Flush()
}

// LoadLinearOpt reads a stream written by LinearOpt.WriteTo and re-binds it
// to the dataset it was captured from (verified by fingerprint), redoing the
// offline eigendecomposition.
func LoadLinearOpt(r io.Reader, d *dataset.Dataset) (*LinearOpt, error) {
	br, cfg, err := readOptHeader(r, linearOptMagic, fingerprint(d))
	if err != nil {
		return nil, err
	}
	wMat := readModel(br, 1, d.M())
	if br.Err != nil {
		return nil, br.Err
	}
	lo, err := newLinearOptState(d, cfg)
	if err != nil {
		return nil, err
	}
	lo.model = &gbm.Model{Task: dataset.Regression, W: wMat}
	return lo, nil
}

// WriteTo serializes the PrIU-opt logistic state: the early-termination point,
// the stabilized linearization coefficients and D*, followed by the embedded
// ts-truncated PrIU capture. The eigendecomposition of C* is rebuilt from the
// coefficients on load.
func (lo *LogisticOpt) WriteTo(w io.Writer) (int64, error) {
	d := lo.prov.data
	fullCfg := lo.prov.cfg
	fullCfg.Iterations = lo.fullIterations
	bw := binio.NewWriter(w)
	writeOptHeader(bw, logisticOptMagic, fingerprint(d), fullCfg)
	bw.I64(int64(lo.ts))
	bw.Floats(lo.aStar)
	bw.Floats(lo.bStar)
	bw.Floats(lo.dStar)
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	// The embedded PrIU capture is self-delimiting and goes last.
	return lo.prov.WriteTo(w)
}

// LoadLogisticOpt reads a stream written by LogisticOpt.WriteTo, restores the
// embedded PrIU capture and rebuilds the eigendecomposition of the stabilized
// matrix C* = Σᵢ aᵢ,*·xᵢxᵢᵀ as capture built it.
func LoadLogisticOpt(r io.Reader, d *dataset.Dataset) (*LogisticOpt, error) {
	br, cfg, err := readOptHeader(r, logisticOptMagic, fingerprint(d))
	if err != nil {
		return nil, err
	}
	ts := int(br.I64())
	aStar := br.Floats()
	bStar := br.Floats()
	dStar := br.Floats()
	if br.Err != nil {
		return nil, br.Err
	}
	if ts < 1 || ts > cfg.Iterations {
		return nil, fmt.Errorf("core: persisted ts %d out of range [1,%d]", ts, cfg.Iterations)
	}
	n, m := d.N(), d.M()
	if len(aStar) != n || len(bStar) != n || len(dStar) != m {
		return nil, fmt.Errorf("core: persisted coefficient lengths %d/%d/%d do not match dataset %dx%d",
			len(aStar), len(bStar), len(dStar), n, m)
	}
	prov, err := LoadLogisticProvenance(br.R, d)
	if err != nil {
		return nil, err
	}
	if prov.cfg.Iterations != ts {
		return nil, fmt.Errorf("core: embedded capture covers %d iterations, want ts=%d", prov.cfg.Iterations, ts)
	}
	eigs, err := stabilizedEigens(d.X, aStar, 1)
	if err != nil {
		return nil, err
	}
	return &LogisticOpt{
		prov:           prov,
		ts:             ts,
		fullIterations: cfg.Iterations,
		aStar:          aStar,
		bStar:          bStar,
		eig:            eigs[0],
		dStar:          dStar,
		occ:            newOccurrenceIndex(prov.sched, ts, n),
	}, nil
}

// WriteTo serializes the PrIU-opt multinomial state: the early-termination
// point, the per-class stabilized coefficients and D*ₖ vectors, followed by
// the embedded ts-truncated PrIU capture. The per-class eigendecompositions
// are rebuilt from the coefficients on load.
func (mo *MultinomialOpt) WriteTo(w io.Writer) (int64, error) {
	d := mo.prov.data
	fullCfg := mo.prov.cfg
	fullCfg.Iterations = mo.fullIterations
	bw := binio.NewWriter(w)
	writeOptHeader(bw, multinomialOptMagic, fingerprint(d), fullCfg)
	bw.I64(int64(mo.ts))
	bw.I64(int64(mo.prov.q))
	bw.Floats(mo.aStar)
	bw.Floats(mo.cStar)
	for k := range mo.dStar {
		bw.Floats(mo.dStar[k])
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return mo.prov.WriteTo(w)
}

// LoadMultinomialOpt reads a stream written by MultinomialOpt.WriteTo,
// restores the embedded PrIU capture and rebuilds each class's
// eigendecomposition of C*ₖ = Σᵢ aₖᵢ,*·xᵢxᵢᵀ as capture built it.
func LoadMultinomialOpt(r io.Reader, d *dataset.Dataset) (*MultinomialOpt, error) {
	br, cfg, err := readOptHeader(r, multinomialOptMagic, fingerprint(d))
	if err != nil {
		return nil, err
	}
	ts := int(br.I64())
	q := int(br.I64())
	aStar := br.Floats()
	cStar := br.Floats()
	if br.Err != nil {
		return nil, br.Err
	}
	if ts < 1 || ts > cfg.Iterations {
		return nil, fmt.Errorf("core: persisted ts %d out of range [1,%d]", ts, cfg.Iterations)
	}
	if q < 1 || q != d.Classes {
		return nil, fmt.Errorf("core: persisted class count %d does not match dataset's %d", q, d.Classes)
	}
	n, m := d.N(), d.M()
	if len(aStar) != q*n || len(cStar) != q*n {
		return nil, fmt.Errorf("core: persisted coefficient lengths %d/%d, want %d", len(aStar), len(cStar), q*n)
	}
	dStar := make([][]float64, q)
	for k := 0; k < q; k++ {
		dStar[k] = br.Floats()
		if br.Err != nil {
			return nil, br.Err
		}
		if len(dStar[k]) != m {
			return nil, fmt.Errorf("core: persisted D*[%d] has %d entries, want %d", k, len(dStar[k]), m)
		}
	}
	prov, err := LoadMultinomialProvenance(br.R, d)
	if err != nil {
		return nil, err
	}
	if prov.cfg.Iterations != ts {
		return nil, fmt.Errorf("core: embedded capture covers %d iterations, want ts=%d", prov.cfg.Iterations, ts)
	}
	eigs, err := stabilizedEigens(d.X, aStar, q)
	if err != nil {
		return nil, err
	}
	return &MultinomialOpt{
		prov:           prov,
		ts:             ts,
		fullIterations: cfg.Iterations,
		aStar:          aStar,
		cStar:          cStar,
		eigs:           eigs,
		dStar:          dStar,
		occ:            newOccurrenceIndex(prov.sched, ts, n),
	}, nil
}
