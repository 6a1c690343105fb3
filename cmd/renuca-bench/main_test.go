package main

import (
	"strings"
	"testing"
)

func TestCheckWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 8} {
		if err := checkWorkers(n); err != nil {
			t.Errorf("-workers %d: %v", n, err)
		}
	}
	if err := checkWorkers(-4); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("-workers -4: got error %v, want one naming -workers", err)
	}
}
