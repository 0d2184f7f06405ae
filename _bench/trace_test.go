package main

import (
	"strings"
	"testing"
)

func TestCheckSpans(t *testing.T) {
	good := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "c", Start: 30, End: 31},
	}
	if err := checkSpans(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	bad := append([]span(nil), good...)
	bad[3].End = 95 // child of b ends after b
	if err := checkSpans(bad); err == nil || !strings.Contains(err.Error(), "outside parent") {
		t.Fatalf("child outside its parent not caught: %v", err)
	}
	bad = append([]span(nil), good...)
	bad[1].End = 5 // ends before it starts
	if err := checkSpans(bad); err == nil {
		t.Fatal("inverted span not caught")
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 10, End: 40}, {Start: 30, End: 90}, {Start: 95, End: 100}, {Start: 50, End: 60}}
	if got := covered(spans); got != 85 {
		t.Fatalf("covered = %d, want 85", got)
	}
}
