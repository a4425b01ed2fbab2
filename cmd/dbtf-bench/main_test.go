package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresExp(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -exp accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTable3(t *testing.T) {
	// table3 only generates datasets; it is the cheapest real experiment.
	if err := run([]string{"-exp", "table3", "-scale", "0.15"}); err != nil {
		t.Fatal(err)
	}
}
