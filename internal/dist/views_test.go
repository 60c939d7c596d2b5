package dist

import (
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"

	"rocks/internal/kickstart"
	"rocks/internal/rpm"
)

// viewPaths are the index endpoints whose bodies the server caches per
// repository generation.
var viewPaths = []string{"/RedHat/base/manifest", "/RedHat/RPMS/", "/RedHat/base/hdlist"}

func getBody(t testing.TB, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
	}
	return string(body)
}

// viewNVRAs reads the package identities out of any of the three index
// bodies, keyed by NVRA with the line's size field ("" for the listing,
// which carries none).
func viewNVRAs(body string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		nvra, err := url.PathUnescape(strings.TrimSuffix(fields[0], ".rpm"))
		if err != nil {
			nvra = fields[0]
		}
		size := ""
		if len(fields) > 1 {
			size = fields[1]
		}
		out[nvra] = size
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sizedPackage(name string, size int64) *rpm.Package {
	p := rpm.New(name, v("1.0", "1"), rpm.ArchI386, rpm.FileEntry{Path: "/usr/bin/" + name, Data: []byte(name)})
	p.Size = size
	return p
}

// TestServedViewsFollowRepository: the manifest, the RPMS/ listing and the
// hdlist each reflect an Add, a Remove, a replacing Add and a rebinding of
// Distribution.Repo on the very next GET — the rebinding to a repository
// whose generation equals the old one's, so only the repository identity
// can tell the two apart.
func TestServedViewsFollowRepository(t *testing.T) {
	first := rpm.NewRepository("first")
	for _, name := range []string{"a", "b", "c"} {
		first.Add(sizedPackage(name, 100))
	}
	d := &Distribution{Name: "d", Repo: first, Framework: kickstart.NewFramework()}
	srv := httptest.NewServer(NewServer(d))
	defer srv.Close()

	expect := func(step string, want map[string]string) {
		t.Helper()
		for _, path := range viewPaths {
			got := viewNVRAs(getBody(t, srv, path))
			if strings.HasSuffix(path, "RPMS/") {
				for k := range got {
					got[k] = want[k] // the listing carries no sizes
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: %s serves %v, want %v", step, path, got, want)
			}
		}
	}
	sizes := map[string]string{"a-1.0-1.i386": "100", "b-1.0-1.i386": "100", "c-1.0-1.i386": "100"}
	expect("initial", sizes)
	expect("unchanged", sizes)

	first.Add(sizedPackage("d", 200))
	sizes["d-1.0-1.i386"] = "200"
	expect("after Add", sizes)

	first.Remove("b-1.0-1.i386")
	delete(sizes, "b-1.0-1.i386")
	expect("after Remove", sizes)

	first.Add(sizedPackage("a", 300)) // the same NVRA: replaces the copy
	sizes["a-1.0-1.i386"] = "300"
	expect("after a replacing Add", sizes)

	second := rpm.NewRepository("second")
	for second.Generation() < first.Generation() {
		n := second.Generation()
		second.Add(sizedPackage(fmt.Sprintf("z%d", n), 400+int64(n)))
	}
	d.Repo = second
	want := map[string]string{}
	for _, p := range second.All() {
		want[p.NVRA()] = fmt.Sprint(p.Size)
	}
	expect("after rebinding Distribution.Repo", want)
}

// TestServedViewsConcurrentAdd: GETs racing a sequence of Adds (run under
// -race in CI) each see a whole view — the base packages plus the first k
// added, for some k — and never a torn one; once the Adds stop, the next
// GET sees them all.
func TestServedViewsConcurrentAdd(t *testing.T) {
	repo := rpm.NewRepository("base")
	for i := 0; i < 5; i++ {
		repo.Add(sizedPackage(fmt.Sprintf("base%d", i), 100))
	}
	srv := httptest.NewServer(NewRepoServer(repo))
	defer srv.Close()

	const added = 30
	addedName := func(i int) string { return fmt.Sprintf("new%02d-1.0-1.i386", i) }
	check := func(path, body string) {
		got := viewNVRAs(body)
		k := len(got) - 5
		if k < 0 || k > added {
			t.Errorf("%s served %d packages", path, len(got))
			return
		}
		for i := 0; i < 5; i++ {
			if _, ok := got[fmt.Sprintf("base%d-1.0-1.i386", i)]; !ok {
				t.Errorf("%s lost base%d: %v", path, i, sortedKeys(got))
			}
		}
		for i := 0; i < k; i++ {
			if _, ok := got[addedName(i)]; !ok {
				t.Errorf("%s is torn: %d packages but not %s: %v", path, len(got), addedName(i), sortedKeys(got))
			}
		}
		if strings.HasSuffix(path, "manifest") {
			if _, err := ParseManifest([]byte(body)); err != nil {
				t.Errorf("torn manifest: %v", err)
			}
		}
	}

	done := make(chan struct{})
	served := make(chan struct{}) // one send per completed GET
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				path := viewPaths[w%len(viewPaths)]
				check(path, getBody(t, srv, path))
				select {
				case served <- struct{}{}:
				case <-done:
					return
				}
			}
		}(w)
	}
	for i := 0; i < added; i++ {
		repo.Add(sizedPackage(strings.TrimSuffix(addedName(i), "-1.0-1.i386"), 100))
		for j := 0; j < 3; j++ {
			<-served // let GETs interleave with every Add
		}
	}
	close(done)
	wg.Wait()
	for _, path := range viewPaths {
		if got := viewNVRAs(getBody(t, srv, path)); len(got) != 5+added {
			t.Errorf("%s after the Adds: %d packages, want %d", path, len(got), 5+added)
		}
	}
}

// TestPayloadDigestGolden pins the content identity of synthetic packages:
// manifests, delta mirroring and install-time verification all key on
// this digest, so a change to how it is computed would make every existing
// tree look corrupt.
func TestPayloadDigestGolden(t *testing.T) {
	repo := SyntheticRedHat()
	for nvra, want := range map[string]string{
		"glibc-4.8.2-14.i386":          "861558fb19a20ef33469a8eb07f6df768505ee0ee4fe01a7e65677075d067b10",
		"kernel-5.7.14-33.ia64":        "94cebc4cc4e16b6ccd3c48dec1aee9046777b58a84e8f2bcd9f75151c3beb4f2",
		"myrinet-gm-src-2.7.14-18.src": "448b7a025e11d4eb0a6e6f253156e183409b6e9c119149ced6ce5035c54d0b1c",
	} {
		p := repo.Get(nvra)
		if p == nil {
			t.Fatalf("synthetic distribution lacks %s", nvra)
		}
		if got := rpm.PayloadDigest(p.Files); got != want {
			t.Errorf("digest of %s = %s, want %s", nvra, got, want)
		}
	}
	// A default mode (0, written as 0644) and an empty file.
	p := rpm.New("dev", v("3.0.6", "5"), rpm.ArchI386,
		rpm.FileEntry{Path: "/dev/null"},
		rpm.FileEntry{Path: "/etc/x", Mode: 0o4755, Data: []byte("hello")})
	if got, want := rpm.PayloadDigest(p.Files), "555662c8d071dbb3ef330937654566cffd747a59358d2a689ad826e131714279"; got != want {
		t.Errorf("digest of the hand-built package = %s, want %s", got, want)
	}
}

// TestGetFindsEverySyntheticPackage: every package of the synthetic
// distribution and of a generated updates set (dotted releases such as
// "12.3") is found by its own NVRA.
func TestGetFindsEverySyntheticPackage(t *testing.T) {
	base := SyntheticRedHat()
	for _, repo := range []*rpm.Repository{base, GenerateUpdates(base, 60, 7), LocalRocksPackages()} {
		for _, p := range repo.All() {
			if got := repo.Get(p.NVRA()); got != p {
				t.Errorf("%s: Get(%s) = %v", repo.Name(), p.NVRA(), got)
			}
		}
	}
}
