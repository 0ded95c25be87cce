package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"retrograde/internal/analysis"
	"retrograde/internal/ra"
	"retrograde/internal/stats"
)

// RunAll builds the environment and regenerates every experiment table at
// the given scale, rendering them to w. With csvDir non-empty, each table
// is additionally written as <csvDir>/<id>.csv for plotting; with jsonPath
// non-empty, all tables are also written as one JSON document. It is the
// whole of cmd/rabench.
func RunAll(s Scale, w io.Writer, progress bool, csvDir, jsonPath string) error {
	var collected []stats.NamedTable
	emit := func(id string, t *stats.Table) error {
		if err := t.Render(w); err != nil {
			return err
		}
		collected = append(collected, stats.NamedTable{ID: id, Table: t})
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, id+".csv"))
		if err != nil {
			return err
		}
		if err := t.RenderCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	logf := func(format string, args ...any) {
		if progress {
			fmt.Fprintf(w, format+"\n", args...)
		}
	}
	logf("# building awari databases 0..%d (substrate for the headline rung)", s.Stones-1)
	env, err := NewEnv(s, func(stones int, r *ra.Result) {
		logf("#   rung %d done: %d positions, %d waves", stones, len(r.Values), r.Waves)
	})
	if err != nil {
		return err
	}
	logf("# running experiments on awari-%d (%d positions)\n", s.Stones, env.Headline().Size())

	if err := emit("E1", E1DatabaseSizes(24)); err != nil {
		return err
	}
	type tableFn struct {
		name string
		run  func(*Env) (*stats.Table, error)
	}
	for _, tf := range []tableFn{
		{"E2", E2Sequential},
		{"E3", E3Speedup},
		{"E4", E4Combining},
		{"E4b", E4bAcrossProcs},
		{"E5", E5Traffic},
	} {
		logf("# %s ...", tf.name)
		t, err := tf.run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", tf.name, err)
		}
		if err := emit(tf.name, t); err != nil {
			return err
		}
	}
	logf("# E6 ...")
	e6, err := E6Memory(env)
	if err != nil {
		return fmt.Errorf("E6: %w", err)
	}
	for i, t := range e6 {
		if err := emit(fmt.Sprintf("E6%c", 'a'+i), t); err != nil {
			return err
		}
	}
	for _, tf := range []tableFn{
		{"E7", E7SharedMemory},
		{"E8", E8RealWire},
		{"E10", E10HotPath},
		{"E14", E14SWAR},
		{"E15", E15OutOfCore},
		{"E16", E16Writeback},
		{"E12", E12Faults},
		{"A1", A1Partition},
		{"A2", A2Interconnect},
		{"A3", A3Termination},
		{"A4", A4Asynchrony},
	} {
		logf("# %s ...", tf.name)
		t, err := tf.run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", tf.name, err)
		}
		if err := emit(tf.name, t); err != nil {
			return err
		}
	}
	logf("# E11 ...")
	e11, err := E11Compression(env)
	if err != nil {
		return fmt.Errorf("E11: %w", err)
	}
	for i, t := range e11 {
		if err := emit(fmt.Sprintf("E11%c", 'a'+i), t); err != nil {
			return err
		}
	}
	logf("# E9 ...")
	e9, err := E9Symmetry()
	if err != nil {
		return fmt.Errorf("E9: %w", err)
	}
	if err := emit("E9", e9); err != nil {
		return err
	}
	logf("# V1 ...")
	v1, err := V1Generality(maxProcs(s.Procs))
	if err != nil {
		return fmt.Errorf("V1: %w", err)
	}
	if err := emit("V1", v1); err != nil {
		return err
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		prov := stats.Provenance{
			Tool:       "rabench",
			RavetSuite: analysis.Version,
			Analyzers:  len(analysis.Suite()),
		}
		if err := stats.WriteJSON(f, prov, collected); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
