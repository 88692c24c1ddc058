package shiftsplit

import (
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestWithSnapshotReleasesOnEveryExit runs WithSnapshot on a durable
// versioned store with a callback that flips an epoch under its pin and
// then leaves by an error, a panic or runtime.Goexit. Inside, the pin is
// the only one and holds the flipped-away epoch; after every exit no pin is
// left and that epoch's superseded blocks have joined the free list.
func TestWithSnapshotReleasesOnEveryExit(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	st, err := CreateStore(StoreOptions{
		Shape: []int{16, 16}, Form: Standard, TileBits: 1,
		Path: filepath.Join(t.TempDir(), "cube.wav"), Durable: true, Versioned: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Materialize(intArray(rng, 16, 16)); err != nil {
		t.Fatal(err)
	}
	stats := func(t *testing.T) EpochStats {
		t.Helper()
		es, ok := st.EpochStats()
		if !ok {
			t.Fatal("no epoch stats on a versioned store")
		}
		return es
	}
	errExit := errors.New("callback failed")
	exits := []struct {
		name  string
		leave func() // called last inside the callback
		run   func(t *testing.T, fn func(*Snapshot) error) error
	}{
		{"error", func() {}, func(t *testing.T, fn func(*Snapshot) error) error {
			return st.WithSnapshot(fn)
		}},
		{"panic", func() { panic(errExit) }, func(t *testing.T, fn func(*Snapshot) error) (err error) {
			defer func() {
				if r := recover(); r != errExit {
					t.Errorf("recovered %v, want the callback's panic", r)
				}
				err = errExit
			}()
			return st.WithSnapshot(fn)
		}},
		{"goexit", runtime.Goexit, func(t *testing.T, fn func(*Snapshot) error) error {
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = st.WithSnapshot(fn) // never returns: the callback ends the goroutine
				t.Error("WithSnapshot returned after runtime.Goexit")
			}()
			<-done
			return errExit
		}},
	}
	for _, exit := range exits {
		t.Run(exit.name, func(t *testing.T) {
			var inside EpochStats
			var pinned uint64
			err := exit.run(t, func(sn *Snapshot) error {
				pinned = sn.Epoch()
				if es := stats(t); es.Pinned != 1 || es.Epoch != pinned {
					t.Errorf("inside the callback %d pins at epoch %d, want 1 at %d", es.Pinned, es.Epoch, pinned)
				}
				if err := st.MergeBlock(CubeBlock(2, 1, 2), Transform(intArray(rng, 4, 4), Standard)); err != nil {
					t.Error(err)
				}
				inside = stats(t)
				exit.leave()
				return errExit
			})
			if err != errExit {
				t.Fatalf("WithSnapshot returned %v, want the callback's error", err)
			}
			if inside.Epoch != pinned+1 || inside.OldestPinned != pinned || inside.Reclaimable == 0 {
				t.Fatalf("after a flip under the pin: epoch %d, oldest pinned %d, %d reclaimable; want %d, %d, > 0",
					inside.Epoch, inside.OldestPinned, inside.Reclaimable, pinned+1, pinned)
			}
			after := stats(t)
			if after.Pinned != 0 || after.OldestPinned != after.Epoch || after.Reclaimable != 0 {
				t.Fatalf("after the callback %d pins, oldest pinned %d at epoch %d, %d reclaimable",
					after.Pinned, after.OldestPinned, after.Epoch, after.Reclaimable)
			}
			// Every block the pin held back is free now, or gone from the top
			// of the file with the high-water mark.
			if freed := after.FreeBlocks + inside.PhysBlocks - after.PhysBlocks - inside.FreeBlocks; freed != inside.Reclaimable {
				t.Fatalf("release freed %d blocks, the pinned epoch held %d", freed, inside.Reclaimable)
			}
		})
	}
}

// misuseCases are programs against the root API, compiled as packages of a
// module outside this one. The first uses snapshots as intended; the
// others are the shapes that leaked an epoch pin before WithSnapshot, and
// must not compile.
var misuseCases = []struct {
	name, body, want string
}{
	{"control", `
func Sum(st *shiftsplit.Store) (sum float64, err error) {
	err = st.WithSnapshot(func(sn *shiftsplit.Snapshot) error {
		sum, _, err = sn.RangeSum([]int{0, 0}, []int{4, 4})
		return err
	})
	return sum, err
}
`, ""},
	// A pin taken outside any scope, released on one path and not the other.
	{"acquire", `
func Sum(st *shiftsplit.Store, early bool) float64 {
	sn := st.AcquireSnapshot()
	if early {
		return 0
	}
	sum, _, _ := sn.RangeSum([]int{0, 0}, []int{4, 4})
	sn.Release()
	return sum
}
`, "has no field or method AcquireSnapshot"},
	// Releasing by hand the pin WithSnapshot hands the callback.
	{"release", `
func Sum(st *shiftsplit.Store) error {
	return st.WithSnapshot(func(sn *shiftsplit.Snapshot) error {
		sn.Release()
		return nil
	})
}
`, "has no field or method Release"},
}

// TestSnapshotMisuseDoesNotCompile holds the pin-release invariant to the
// compiler: each misuse case must fail to build with its error, and the
// control must build, so no failure comes from an unrelated cause. The
// module replaces this repository with its working tree and builds offline.
func TestSnapshotMisuseDoesNotCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a module against the working tree")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module misuse\n\ngo 1.22\n\nrequire github.com/shiftsplit/shiftsplit v0.0.0\n\nreplace github.com/shiftsplit/shiftsplit => "+repo+"\n")
	for _, c := range misuseCases {
		write(filepath.Join(c.name, c.name+".go"), "package "+c.name+"\n\nimport \"github.com/shiftsplit/shiftsplit\"\n"+c.body)
	}
	for _, c := range misuseCases {
		ok := t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(gobin, "build", "./"+c.name)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off")
			out, err := cmd.CombinedOutput()
			switch {
			case c.want == "":
				if err != nil {
					t.Fatalf("the control does not build: %v\n%s", err, out)
				}
			case err == nil:
				t.Errorf("built, want the compiler to reject it with %q", c.want)
			case !strings.Contains(string(out), c.want):
				t.Errorf("rejected for another reason, want %q:\n%s", c.want, out)
			}
		})
		if !ok && c.want == "" {
			t.FailNow() // the misuse verdicts mean nothing if the control fails
		}
	}
}
