package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// diffRows names the fields in which two values of one struct type
// differ (a traced row against core.RunGenerate's, say); nil when they
// are identical.
func diffRows(a, b any) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return []string{"type"}
	}
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// checkDeterminism compares the run's deterministic counts with the
// record earlier runs of the same build, workload and seed left, traced
// or not, and adds any count the record lacks. A count that differs is
// a behaviour change, not noise: it makes the run incorrect.
func checkDeterminism(opt options, r *run, counts map[string]int64) error {
	dir := filepath.Join(opt.out, "determinism")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", opt.workload, opt.seed, r.header.Binary))
	rec := make(map[string]int64)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	drift := compareCounts(rec, counts)
	for _, d := range drift {
		r.problem("determinism drift: %s", d)
	}
	r.detail["counts"] = counts
	if len(drift) > 0 {
		return nil
	}
	for k, v := range counts {
		rec[k] = v
	}
	out, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// compareCounts lists every count present in both maps whose values
// differ.
func compareCounts(recorded, now map[string]int64) []string {
	var out []string
	for k, v := range now {
		if old, ok := recorded[k]; ok && old != v {
			out = append(out, fmt.Sprintf("%s was %d, now %d", k, old, v))
		}
	}
	sort.Strings(out)
	return out
}
