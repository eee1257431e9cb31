package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/ptrace"
)

// stored holds the expected outputs of the default seed and the claim
// line of every metric; both are compiled into the binary.
//
//go:embed expected claims.json
var stored embed.FS

// expectedDir is where --update-expected writes, relative to the
// repository root the benchmark runs from.
const expectedDir = "perfbench/expected"

// expected is a workload's stored outputs: one JSON value per grid
// point, plus the golden trace digest of a capturing workload.
type expected struct {
	points []json.RawMessage
	digest *ptrace.Summary
}

type expectedFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Points   []json.RawMessage `json:"points"`
}

// loadExpected parses the stored outputs of a workload. A workload
// without a digest file simply has no golden digest.
func loadExpected(name string) (expected, error) {
	var exp expected
	data, err := stored.ReadFile("expected/" + name + ".json")
	if err != nil {
		return exp, fmt.Errorf("expected outputs: %w", err)
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return exp, fmt.Errorf("expected/%s.json: %w", name, err)
	}
	if f.Seed != defaultSeed {
		return exp, fmt.Errorf("expected/%s.json holds seed %d, want %d", name, f.Seed, defaultSeed)
	}
	exp.points = f.Points
	dig, err := stored.ReadFile("expected/" + name + ".digest")
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return exp, err
	default:
		if exp.digest, err = ptrace.ReadSummary(bytes.NewReader(dig)); err != nil {
			return exp, fmt.Errorf("expected/%s.digest: %w", name, err)
		}
	}
	return exp, nil
}

// writeExpected stores the first run of every point as the workload's
// expected outputs (and its digest, when it captures a trace).
func writeExpected(name string, first []*pointResult) error {
	f := expectedFile{Workload: name, Seed: defaultSeed}
	var digest *ptrace.Summary
	for i, r := range first {
		if r == nil {
			return fmt.Errorf("point %d never succeeded; nothing to store", i)
		}
		raw, err := json.Marshal(r.out)
		if err != nil {
			return err
		}
		f.Points = append(f.Points, raw)
		if r.digest != nil {
			digest = r.digest
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(expectedDir, name+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if digest == nil {
		return nil
	}
	var b bytes.Buffer
	if err := ptrace.WriteSummary(&b, digest); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(expectedDir, name+".digest"), b.Bytes(), 0o644)
}

// sameJSON reports whether got encodes to the same JSON value as want.
// Go's float encoding round-trips exactly, so this is exact equality.
func sameJSON(want json.RawMessage, got any) error {
	raw, err := json.Marshal(got)
	if err != nil {
		return err
	}
	var a, b any
	if err := json.Unmarshal(want, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("want %s, got %s", want, raw)
	}
	return nil
}

// loadClaims maps each metric name to what it claims, from claims.json
// (which also records each metric's unit, why it is the right metric
// and which end-to-end metric it should move).
func loadClaims() map[string]string {
	out := map[string]string{}
	data, err := stored.ReadFile("claims.json")
	if err != nil {
		return out
	}
	var cs struct {
		Metrics []struct {
			Name   string `json:"name"`
			Claims string `json:"claims"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &cs); err != nil {
		return out
	}
	for _, c := range cs.Metrics {
		out[c.Name] = c.Claims
	}
	return out
}
