package rpm

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestRepositoryNewestPicksHighestVersion(t *testing.T) {
	r := NewRepository("redhat")
	r.Add(New("glibc", v("2.2.4", "13"), ArchI386))
	r.Add(New("glibc", v("2.2.4", "24"), ArchI386)) // security update
	r.Add(New("glibc", v("2.2.2", "10"), ArchI386))
	got := r.Newest("glibc", ArchI386)
	if got == nil || got.Version.Release != "24" {
		t.Fatalf("Newest = %v, want release 24", got)
	}
}

func TestRepositoryNewestArchCompatibility(t *testing.T) {
	r := NewRepository("redhat")
	r.Add(New("kernel", v("2.4.9", "31"), ArchI386))
	r.Add(New("kernel", v("2.4.9", "31"), ArchAthlon))
	r.Add(New("rocks-dist", v("2.2.1", "1"), ArchNoarch))

	if got := r.Newest("kernel", ArchAthlon); got == nil || got.Arch != ArchAthlon {
		t.Errorf("athlon node should prefer the athlon kernel, got %v", got)
	}
	if got := r.Newest("kernel", ArchI386); got == nil || got.Arch != ArchI386 {
		t.Errorf("i386 node must not get the athlon kernel, got %v", got)
	}
	if got := r.Newest("rocks-dist", ArchIA64); got == nil {
		t.Errorf("noarch packages should match any architecture")
	}
	if got := r.Newest("kernel", ArchIA64); got != nil {
		t.Errorf("ia64 node must not receive an i386 kernel, got %v", got)
	}
}

func TestRepositoryAthlonFallsBackToI386(t *testing.T) {
	r := NewRepository("redhat")
	r.Add(New("emacs", v("20.7", "34"), ArchI386))
	if got := r.Newest("emacs", ArchAthlon); got == nil {
		t.Error("athlon node should fall back to the i386 package")
	}
}

func TestRepositoryAddReplacesSameNVRA(t *testing.T) {
	r := NewRepository("local")
	a := New("foo", v("1.0", "1"), ArchI386, FileEntry{Path: "/a", Data: []byte("old")})
	b := New("foo", v("1.0", "1"), ArchI386, FileEntry{Path: "/a", Data: []byte("new")})
	r.Add(a)
	r.Add(b)
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if got := string(r.Get("foo-1.0-1.i386").Files[0].Data); got != "new" {
		t.Errorf("re-adding the same NVRA should replace the payload, got %q", got)
	}
}

func TestRepositoryRemove(t *testing.T) {
	r := NewRepository("local")
	r.Add(New("foo", v("1.0", "1"), ArchI386))
	if !r.Remove("foo-1.0-1.i386") {
		t.Fatal("Remove returned false for an existing package")
	}
	if r.Remove("foo-1.0-1.i386") {
		t.Fatal("Remove returned true for a missing package")
	}
	if r.Newest("foo", ArchI386) != nil {
		t.Error("package still resolvable after Remove")
	}
}

func TestRepositoryResolveClosure(t *testing.T) {
	r := NewRepository("dist")
	mpich := New("mpich", v("1.2.2", "1"), ArchI386)
	mpich.Requires = []string{"glibc", "gcc"}
	gcc := New("gcc", v("2.96", "98"), ArchI386)
	gcc.Requires = []string{"glibc"}
	r.Add(mpich)
	r.Add(gcc)
	r.Add(New("glibc", v("2.2.4", "24"), ArchI386))

	got, err := r.Resolve(ArchI386, []string{"mpich"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	var names []string
	for _, p := range got {
		names = append(names, p.Name)
	}
	want := "mpich glibc gcc"
	if strings.Join(names, " ") != want {
		t.Errorf("Resolve order = %v, want %s", names, want)
	}
}

func TestRepositoryResolveMissingNamesCulprit(t *testing.T) {
	r := NewRepository("dist")
	p := New("pbs", v("2.3.12", "1"), ArchI386)
	p.Requires = []string{"libtcl"}
	r.Add(p)
	_, err := r.Resolve(ArchI386, []string{"pbs"})
	if err == nil {
		t.Fatal("Resolve should fail on a missing dependency")
	}
	if !strings.Contains(err.Error(), "libtcl") || !strings.Contains(err.Error(), "pbs") {
		t.Errorf("error should name both the missing package and what required it: %v", err)
	}
}

func TestRepositoryResolveCycleTerminates(t *testing.T) {
	r := NewRepository("dist")
	a := New("a", v("1", "1"), ArchI386)
	a.Requires = []string{"b"}
	b := New("b", v("1", "1"), ArchI386)
	b.Requires = []string{"a"}
	r.Add(a)
	r.Add(b)
	got, err := r.Resolve(ArchI386, []string{"a"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("cycle should resolve each package once, got %d", len(got))
	}
}

func TestRepositoryNamesAndAll(t *testing.T) {
	r := NewRepository("dist")
	r.Add(New("zsh", v("3.0.8", "8"), ArchI386))
	r.Add(New("bash", v("2.05", "8"), ArchI386))
	r.Add(New("bash", v("2.05a", "1"), ArchI386))
	if got := r.Names(); len(got) != 2 || got[0] != "bash" || got[1] != "zsh" {
		t.Errorf("Names = %v", got)
	}
	all := r.All()
	if len(all) != 3 || all[0].NVRA() != "bash-2.05-8.i386" || all[1].NVRA() != "bash-2.05a-1.i386" {
		t.Errorf("All = %v", all)
	}
	if got := r.Versions("bash"); len(got) != 2 || got[0].Version.Version != "2.05a" {
		t.Errorf("Versions should be newest-first, got %v", got)
	}
}

func TestRepositoryTotalSize(t *testing.T) {
	r := NewRepository("dist")
	p := New("a", v("1", "1"), ArchI386)
	p.Size = 1000
	q := New("b", v("1", "1"), ArchI386)
	q.Size = 234
	r.Add(p)
	r.Add(q)
	if got := r.TotalSize(); got != 1234 {
		t.Errorf("TotalSize = %d, want 1234", got)
	}
}

func TestRepositoryConcurrentAccess(t *testing.T) {
	// The reinstall experiments read one repository from many node
	// goroutines while rocks-dist may be refreshing it; exercise that under
	// the race detector.
	r := NewRepository("dist")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Add(New(fmt.Sprintf("pkg%d", i), v("1.0", fmt.Sprint(j)), ArchI386))
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Newest(fmt.Sprintf("pkg%d", i), ArchI386)
				r.Names()
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 8*50 {
		t.Errorf("Len = %d, want %d", r.Len(), 8*50)
	}
}

// scanGet is the reference lookup: the full scan Repository.Get once was,
// formatting every package's NVRA and comparing strings. The differential
// tests pin the bucket lookup against it.
func scanGet(r *Repository, nvra string) *Package {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, list := range r.pkgs {
		for _, q := range list {
			if q.NVRA() == nvra {
				return q
			}
		}
	}
	return nil
}

// NVRA fields for the seeded repositories: dashed names, dotted releases
// of the kind GenerateUpdates makes, and every architecture, so buckets
// hold several architectures and source packages.
var (
	diffNames    = []string{"glibc", "gcc-c++", "myrinet-gm-src", "kernel-smp", "x", "rocks-dist"}
	diffVersions = []string{"1.0", "2.4.9", "3", "7.2.96"}
	diffReleases = []string{"1", "12", "12.3", "27.7.x", "5.1.2"}
	diffArches   = []string{ArchI386, ArchAthlon, ArchIA64, ArchNoarch, ArchSRPM}
)

// unparseableNVRAs do not split into name-version-release.arch.
var unparseableNVRAs = []string{
	"", "glibc", "glibc.i386", "glibc-1.0.i386", "-1.0-1.i386", "glibc-1.0-1",
	"gcc-c++-1", "--.", "-.i386",
}

func randomNVRAPackage(rng *rand.Rand) *Package {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	return New(pick(diffNames), v(pick(diffVersions), pick(diffReleases)), pick(diffArches))
}

// TestRepositoryGetMatchesScan drives seeded random repositories through
// interleaved Add (new and replacing) and Remove sequences and checks, after
// every step, that the bucket lookup agrees with the full scan and with a
// model of the contents: on the NVRA just touched and the unparseable
// ones every step, and every 25 steps on each NVRA seen so far, whether it
// exists, has been removed, or was never added.
func TestRepositoryGetMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRepository("diff")
		model := map[string]*Package{} // NVRA → the package Get must return
		seen := map[string]bool{}
		for step := 0; step < 300; step++ {
			p := randomNVRAPackage(rng)
			nvra := p.NVRA()
			seen[nvra] = true
			if rng.Intn(3) == 0 {
				gen := r.Generation()
				_, present := model[nvra]
				if got := r.Remove(nvra); got != present {
					t.Fatalf("seed %d step %d: Remove(%s) = %v, want %v", seed, step, nvra, got, present)
				}
				if moved := r.Generation() != gen; moved != present {
					t.Fatalf("seed %d step %d: Remove(%s) moved the generation: %v, want %v", seed, step, nvra, moved, present)
				}
				delete(model, nvra)
			} else {
				gen := r.Generation()
				r.Add(p) // replaces an existing copy of the NVRA
				if r.Generation() == gen {
					t.Fatalf("seed %d step %d: Add(%s) left the generation at %d", seed, step, nvra, gen)
				}
				model[nvra] = p
			}
			if r.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, r.Len(), len(model))
			}
			probes := []string{nvra}
			if step%25 == 0 {
				probes = probes[:0]
				for nvra := range seen {
					probes = append(probes, nvra)
				}
			}
			for _, nvra := range probes {
				if got, want := r.Get(nvra), scanGet(r, nvra); got != want || got != model[nvra] {
					t.Fatalf("seed %d step %d: Get(%s) = %v, scan = %v, model = %v", seed, step, nvra, got, want, model[nvra])
				}
			}
			for _, bad := range unparseableNVRAs {
				if got := r.Get(bad); got != nil {
					t.Fatalf("seed %d: Get(%q) = %v for an unparseable NVRA", seed, bad, got)
				}
				if r.Remove(bad) {
					t.Fatalf("seed %d: Remove(%q) removed something for an unparseable NVRA", seed, bad)
				}
			}
		}
	}
}

// TestRepositoryGetEveryName: a lookup by each stored package's own NVRA
// finds exactly that package, whatever dashes its name or dots its release
// carry, and a name that differs only in a shared prefix finds nothing.
func TestRepositoryGetEveryName(t *testing.T) {
	r := NewRepository("dist")
	for _, name := range diffNames {
		for _, rel := range diffReleases {
			for _, arch := range diffArches {
				r.Add(New(name, v("1.0", rel), arch))
			}
		}
	}
	for _, p := range r.All() {
		if got := r.Get(p.NVRA()); got != p {
			t.Errorf("Get(%s) = %v", p.NVRA(), got)
		}
	}
	for _, nvra := range []string{"gcc-1.0-1.i386", "c++-1.0-1.i386", "myrinet-gm-1.0-1.src", "glibc-1.0-1.alpha"} {
		if got := r.Get(nvra); got != nil {
			t.Errorf("Get(%s) = %v, want nil", nvra, got)
		}
	}
}
