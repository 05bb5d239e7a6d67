package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"uniserver/internal/scenario"
)

// testCampaignOpts is the small grid the CLI tests run: two presets
// scaled to 4 fast cells, sequential for determinism.
func testCampaignOpts(storeDir string) campaignOpts {
	return campaignOpts{
		spec:            "baseline,mode-churn",
		nodesOverride:   2,
		windowsOverride: 6,
		seed:            11,
		seedCount:       2,
		parallel:        1,
		storeDir:        storeDir,
	}
}

// TestInterruptedCampaignEmitsResumableState is the regression test
// for the interrupt path: a canceled campaign must still print the
// partial fingerprint and the result store's state (the run used to
// silently lose both), and the store must then actually resume — the
// rerun serves completed cells without re-executing and lands on the
// uninterrupted fingerprint.
func TestInterruptedCampaignEmitsResumableState(t *testing.T) {
	dir := t.TempDir()
	opts := testCampaignOpts(dir)

	// Reference: the uninterrupted campaign, straight through the
	// scenario engine.
	camp, err := buildCampaign(opts)
	if err != nil {
		t.Fatalf("buildCampaign: %v", err)
	}
	ref, err := scenario.RunCampaign(camp)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}

	// Interrupt before the first cell: a pre-canceled context models
	// SIGINT landing at the earliest boundary. Every cell cancels; the
	// run must still report itself as resumable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err = runCampaignCLI(ctx, &buf, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign error = %v, want context.Canceled", err)
	}
	out := buf.String()
	for _, want := range []string{
		"INTERRUPTED: 0 of 4 cells complete",
		"partial campaign fingerprint sha256:",
		"result store " + dir,
		"resume: rerun the same command",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("interrupted output lacks %q:\n%s", want, out)
		}
	}

	// Rerun with a live context: the run completes, lands on the
	// reference fingerprint, and prints the stored run ID.
	var buf2 bytes.Buffer
	if err := runCampaignCLI(context.Background(), &buf2, opts); err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	out2 := buf2.String()
	if !strings.Contains(out2, "campaign fingerprint sha256:"+ref.FingerprintSHA256) {
		t.Errorf("resumed campaign fingerprint diverged from the direct run:\n%s", out2)
	}
	if !strings.Contains(out2, "complete in store") {
		t.Errorf("completed run does not print its stored run ID:\n%s", out2)
	}

	// Third run on the same store: every cell served from the store
	// (4 hits, 0 executions), same fingerprint — completed cells never
	// re-execute.
	var buf3 bytes.Buffer
	if err := runCampaignCLI(context.Background(), &buf3, opts); err != nil {
		t.Fatalf("fully-cached campaign: %v", err)
	}
	out3 := buf3.String()
	if !strings.Contains(out3, "campaign fingerprint sha256:"+ref.FingerprintSHA256) {
		t.Errorf("cache-served campaign fingerprint diverged:\n%s", out3)
	}
	if !strings.Contains(out3, "4 served from store, 0 executed") {
		t.Errorf("cache-served campaign re-executed cells:\n%s", out3)
	}
}

// TestInterruptedCampaignWithoutStoreStillPrintsFingerprint: even with
// no store attached, interruption must emit the partial fingerprint
// and say the work is not persisted.
func TestInterruptedCampaignWithoutStoreStillPrintsFingerprint(t *testing.T) {
	opts := testCampaignOpts("")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := runCampaignCLI(ctx, &buf, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign error = %v, want context.Canceled", err)
	}
	out := buf.String()
	if !strings.Contains(out, "partial campaign fingerprint sha256:") {
		t.Errorf("interrupted output lacks the partial fingerprint:\n%s", out)
	}
	if !strings.Contains(out, "without -result-store") {
		t.Errorf("interrupted output does not warn that nothing persisted:\n%s", out)
	}
}

// TestDiffCLI drives the diff subcommand end to end over two stored
// runs with different seeds: the report renders, the JSON lands, and
// matching runs pass -fail-on-regression while self-identical runs
// report a match.
func TestDiffCLI(t *testing.T) {
	dir := t.TempDir()

	optsA := testCampaignOpts(dir)
	var outA bytes.Buffer
	if err := runCampaignCLI(context.Background(), &outA, optsA); err != nil {
		t.Fatalf("run A: %v", err)
	}
	optsB := testCampaignOpts(dir)
	optsB.seed = 31
	var outB bytes.Buffer
	if err := runCampaignCLI(context.Background(), &outB, optsB); err != nil {
		t.Fatalf("run B: %v", err)
	}
	idA, idB := storedRunID(t, outA.String()), storedRunID(t, outB.String())
	if idA == idB {
		t.Fatalf("different seeds landed on the same run ID")
	}

	jsonPath := dir + "/diff.json"
	var diffOut bytes.Buffer
	if err := runDiff([]string{"-store", dir, "-json", jsonPath, idA, idB}, &diffOut); err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !strings.Contains(diffOut.String(), "campaign fingerprints MISMATCH") {
		t.Errorf("different-seed diff did not flag the fingerprint mismatch:\n%s", diffOut.String())
	}

	// Self-diff: identical runs match, and -fail-on-regression passes.
	var selfOut bytes.Buffer
	if err := runDiff([]string{"-store", dir, "-fail-on-regression", idA, idA}, &selfOut); err != nil {
		t.Fatalf("self-diff: %v", err)
	}
	if !strings.Contains(selfOut.String(), "campaign fingerprints match") {
		t.Errorf("self-diff did not report a match:\n%s", selfOut.String())
	}

	// Unknown run IDs are refused.
	if err := runDiff([]string{"-store", dir, "r0000000000000000", idB}, &bytes.Buffer{}); err == nil {
		t.Errorf("diff accepted an unknown run ID")
	}
}

// storedRunID extracts the run ID from runCampaignCLI's store line.
func storedRunID(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "run r") && strings.Contains(line, "complete in store") {
			return strings.Fields(line)[1]
		}
	}
	t.Fatalf("no stored run ID in output:\n%s", out)
	return ""
}
