package storage

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
)

func TestClassifySentinels(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassUnknown},
		{"plain", errors.New("boring"), ClassUnknown},
		{"closed", ErrClosed, ClassUnknown},
		{"checksum", ErrChecksum, ClassCorruption},
		{"journal", ErrJournalCorrupt, ClassCorruption},
		{"injected", ErrInjected, ClassTransient},
		{"wrapped-checksum", fmt.Errorf("read block 7: %w", ErrChecksum), ClassCorruption},
		{"wrapped-injected", fmt.Errorf("write block 3: %w", ErrInjected), ClassTransient},
		{"class-itself", ErrCorruption, ClassCorruption},
		{"enospc", WithClass(syscall.ENOSPC, ErrNoSpace), ClassNoSpace},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestClassifiedPreservesIdentity checks that reclassifying the historical
// sentinels did not break identity matching: errors.Is against the concrete
// sentinel and against its class must both hold, through wrapping.
func TestClassifiedPreservesIdentity(t *testing.T) {
	wrapped := fmt.Errorf("storage: block %d: crc mismatch: %w", 12, ErrChecksum)
	if !errors.Is(wrapped, ErrChecksum) {
		t.Error("wrapped checksum error does not match ErrChecksum")
	}
	if !errors.Is(wrapped, ErrCorruption) {
		t.Error("wrapped checksum error does not match ErrCorruption")
	}
	if errors.Is(wrapped, ErrTransient) || errors.Is(wrapped, ErrNoSpace) {
		t.Error("checksum error matches a foreign class")
	}
	if errors.Is(ErrInjected, ErrJournalCorrupt) {
		t.Error("distinct classified sentinels must not match each other")
	}
	if !errors.Is(ErrJournalCorrupt, ErrCorruption) {
		t.Error("ErrJournalCorrupt does not match ErrCorruption")
	}
}

func TestWithClass(t *testing.T) {
	if WithClass(nil, ErrNoSpace) != nil {
		t.Error("WithClass(nil) must stay nil")
	}
	base := fmt.Errorf("pwrite: %w", syscall.ENOSPC)
	labeled := WithClass(base, ErrNoSpace)
	if !errors.Is(labeled, syscall.ENOSPC) {
		t.Error("WithClass broke the original error chain")
	}
	if !errors.Is(labeled, ErrNoSpace) {
		t.Error("WithClass did not attach the class")
	}
	if !IsSpaceExhausted(labeled) {
		t.Error("IsSpaceExhausted(labeled ENOSPC) = false")
	}
	if labeled.Error() != base.Error() {
		t.Errorf("WithClass changed the message: %q vs %q", labeled.Error(), base.Error())
	}
	outer := fmt.Errorf("storage: write block 4: %w", labeled)
	if !errors.Is(outer, ErrNoSpace) || !errors.Is(outer, syscall.ENOSPC) {
		t.Error("wrapping a labeled error lost class or chain")
	}
}

func TestIsHelpers(t *testing.T) {
	if IsCorruption(nil) || IsSpaceExhausted(nil) {
		t.Error("nil must not belong to any class")
	}
	if !IsCorruption(ErrChecksum) {
		t.Error("IsCorruption(ErrChecksum) = false")
	}
	if IsCorruption(ErrInjected) {
		t.Error("IsCorruption(ErrInjected) = true")
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassUnknown:    "unknown",
		ClassTransient:  "transient",
		ClassCorruption: "corruption",
		ClassNoSpace:    "space-exhausted",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestIsTransientTaxonomy(t *testing.T) {
	if IsTransient(nil) {
		t.Error("IsTransient(nil) = true")
	}
	if !IsTransient(ErrInjected) {
		t.Error("IsTransient(ErrInjected) = false")
	}
	if !IsTransient(fmt.Errorf("op: %w", ErrInjected)) {
		t.Error("IsTransient(wrapped ErrInjected) = false")
	}
	for _, err := range []error{ErrClosed, ErrChecksum, ErrCrashed, ErrJournalCorrupt, WithClass(syscall.ENOSPC, ErrNoSpace)} {
		if IsTransient(err) {
			t.Errorf("IsTransient(%v) = true, want false", err)
		}
	}
	// A transient label attached to an otherwise-unknown error is honored.
	if !IsTransient(WithClass(errors.New("device busy"), ErrTransient)) {
		t.Error("IsTransient(WithClass(..., ErrTransient)) = false")
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrInjected, true},
		{ErrClosed, false},
		{ErrChecksum, false},
		{ErrCrashed, false},
		{ErrJournalCorrupt, false},
		{errors.New("mystery"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
