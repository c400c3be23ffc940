package main

import (
	"strings"
	"testing"
	"time"

	"flashextract/internal/serve"
)

func TestParseServeFlagsDefaults(t *testing.T) {
	cfg, err := parseServeFlags([]string{"-programs", "/tmp/progs"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.programs != "/tmp/progs" {
		t.Errorf("programs = %q", cfg.programs)
	}
	if cfg.maxInflight != serve.DefaultMaxInflight {
		t.Errorf("maxInflight = %d, want %d", cfg.maxInflight, serve.DefaultMaxInflight)
	}
	if cfg.admin != "" || cfg.chaos != "" || cfg.selfCheck || cfg.prefilter {
		t.Errorf("non-default optional flags: %+v", cfg)
	}
	if cfg.workers != 0 || cfg.timeout != 0 {
		t.Errorf("workers/timeout defaults: %+v", cfg)
	}
	if cfg.logLevel != "info" || cfg.logJSON {
		t.Errorf("log defaults: %+v", cfg)
	}
}

func TestParseServeFlagsExplicit(t *testing.T) {
	cfg, err := parseServeFlags([]string{
		"-programs", "p", "-admin", "127.0.0.1:0", "-max-inflight", "8",
		"-workers", "2", "-timeout", "250ms",
		"-chaos", "seed=7", "-prefilter", "-log-level", "debug", "-log-json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.admin != "127.0.0.1:0" || cfg.maxInflight != 8 ||
		cfg.workers != 2 || cfg.timeout != 250*time.Millisecond ||
		cfg.chaos != "seed=7" || !cfg.prefilter ||
		cfg.logLevel != "debug" || !cfg.logJSON {
		t.Errorf("parsed config: %+v", cfg)
	}
}

func TestParseServeFlagsRejectsPositionalArgs(t *testing.T) {
	_, err := parseServeFlags([]string{"-programs", "p", "doc.txt"})
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunServeRequiresPrograms(t *testing.T) {
	err := runServe(nil, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "-programs is required") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunServeMissingDirectory(t *testing.T) {
	err := runServe([]string{"-programs", "/nonexistent/progs"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "program directory") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunServeBadChaosSpec(t *testing.T) {
	err := runServe([]string{"-programs", "p", "-chaos", "rate=2"}, &strings.Builder{})
	if err == nil {
		t.Fatal("bad chaos spec accepted")
	}
}
