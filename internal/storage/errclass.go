package storage

import "errors"

// This file is the storage error taxonomy. Every failure the stack can
// produce falls into one of three classes, and each class demands a
// different response from the layers above:
//
//   - transient: the medium hiccuped but the data is intact (an injected
//     fault, a congested device). Retrying is correct and cheap.
//   - corruption: the bytes on the medium are wrong (bit rot, a torn
//     write caught by its CRC). Retrying is wasted I/O — the same wrong
//     bytes come back — and the block must be quarantined and repaired.
//   - space-exhausted: the medium is full. Retrying without freeing
//     space cannot succeed; maintenance must stop cleanly.
//
// The classes are plain errors.Is-able sentinels: a concrete error joins a
// class by wrapping it (see classified / WithClass), so callers test
// membership with errors.Is(err, ErrCorruption) and never by matching
// message strings. The shiftsplitvet `errclass` analyzer rejects
// string-matching on storage errors for exactly this reason.
var (
	// ErrTransient is the class of recoverable media faults; retry.
	ErrTransient = errors.New("storage: transient fault")
	// ErrCorruption is the class of wrong-bytes-on-media faults; never
	// retry, quarantine and repair instead.
	ErrCorruption = errors.New("storage: data corruption")
	// ErrNoSpace is the class of space-exhaustion faults; fail the batch
	// and surface the condition to the operator.
	ErrNoSpace = errors.New("storage: space exhausted")
)

// Class labels a storage error with its taxonomy class.
type Class int

const (
	// ClassUnknown covers errors outside the taxonomy (bad arguments,
	// closed stores, simulated power cuts): fail-stop, do not retry.
	ClassUnknown Class = iota
	// ClassTransient errors are worth retrying.
	ClassTransient
	// ClassCorruption errors mark unusable on-media bytes.
	ClassCorruption
	// ClassNoSpace errors mark a full medium.
	ClassNoSpace
)

// String returns the class name used in logs and reports.
func (c Class) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassCorruption:
		return "corruption"
	case ClassNoSpace:
		return "space-exhausted"
	default:
		return "unknown"
	}
}

// Classify reports the taxonomy class of err (ClassUnknown for nil and for
// errors outside the taxonomy). Corruption wins when an error chain somehow
// carries several classes: it is the one that must not be retried.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassUnknown
	case errors.Is(err, ErrCorruption):
		return ClassCorruption
	case errors.Is(err, ErrNoSpace):
		return ClassNoSpace
	case errors.Is(err, ErrTransient):
		return ClassTransient
	default:
		return ClassUnknown
	}
}

// IsTransient reports whether a storage error is worth retrying: injected
// faults and other ErrTransient-classed errors are; corruption, space
// exhaustion, and fail-stop errors (closed store, simulated power loss, bad
// arguments) are not.
func IsTransient(err error) bool { return Classify(err) == ClassTransient }

// IsCorruption reports whether err is classified as on-media corruption.
func IsCorruption(err error) bool { return err != nil && errors.Is(err, ErrCorruption) }

// IsSpaceExhausted reports whether err is classified as a full medium.
func IsSpaceExhausted(err error) bool { return err != nil && errors.Is(err, ErrNoSpace) }

// classified is a sentinel error that belongs to a taxonomy class: it
// matches itself (by identity, as any sentinel does) and its class through
// errors.Is. ErrChecksum, ErrJournalCorrupt, and ErrInjected are built
// this way, so existing errors.Is(err, ErrChecksum) tests keep working
// while errors.Is(err, ErrCorruption) now also holds.
type classified struct {
	msg   string
	class error
}

func (e *classified) Error() string { return e.msg }

// Is reports class membership; identity with the sentinel itself is
// handled by errors.Is's == fast path before this method is consulted.
func (e *classified) Is(target error) bool { return target == e.class }

// newClassified builds a sentinel belonging to class.
func newClassified(msg string, class error) error {
	return &classified{msg: msg, class: class}
}

// withClass attaches a taxonomy class to an existing error without
// disturbing its chain: the result unwraps to err and additionally matches
// class under errors.Is. Used where the class is only known from context,
// e.g. an ENOSPC from the filesystem.
type withClass struct {
	err   error
	class error
}

// WithClass returns err labeled with the given taxonomy class (one of
// ErrTransient, ErrCorruption, ErrNoSpace). A nil err stays nil.
func WithClass(err, class error) error {
	if err == nil {
		return nil
	}
	return &withClass{err: err, class: class}
}

func (e *withClass) Error() string { return e.err.Error() }

func (e *withClass) Unwrap() error { return e.err }

func (e *withClass) Is(target error) bool { return target == e.class }
