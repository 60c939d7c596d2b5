package ring

import (
	"reflect"
	"testing"
)

func contents[T any](r *Ring[T]) []T {
	var out []T
	r.Each(func(v T) bool {
		out = append(out, v)
		return true
	})
	return out
}

func TestRingFillsInOrder(t *testing.T) {
	r := New[int](4)
	if r.Len() != 0 || contents(r) != nil {
		t.Fatalf("new ring not empty: len %d, %v", r.Len(), contents(r))
	}
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	if got := contents(r); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("partial ring = %v, want [1 2 3]", got)
	}
	if r.Len() != 3 || r.Evicted() != 0 {
		t.Errorf("len %d evicted %d, want 3 and 0", r.Len(), r.Evicted())
	}
}

// TestRingWraparound pushes well past capacity, through several laps of
// the backing array, and checks after every push that the ring holds
// exactly the newest values, oldest first, with every overwrite counted.
func TestRingWraparound(t *testing.T) {
	const capacity = 5
	r := New[int](capacity)
	for n := 1; n <= 4*capacity+3; n++ {
		r.Push(n)
		lo := n - capacity + 1
		if lo < 1 {
			lo = 1
		}
		var want []int
		for v := lo; v <= n; v++ {
			want = append(want, v)
		}
		if got := contents(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d pushes: %v, want %v", n, got, want)
		}
		if r.Len() != len(want) {
			t.Fatalf("after %d pushes: len %d, want %d", n, r.Len(), len(want))
		}
		if wantEvicted := uint64(n - len(want)); r.Evicted() != wantEvicted {
			t.Fatalf("after %d pushes: evicted %d, want %d", n, r.Evicted(), wantEvicted)
		}
	}
}

func TestRingCapacityOne(t *testing.T) {
	r := New[string](1)
	r.Push("a")
	r.Push("b")
	r.Push("c")
	if got := contents(r); !reflect.DeepEqual(got, []string{"c"}) {
		t.Errorf("ring = %v, want [c]", got)
	}
	if r.Len() != 1 || r.Evicted() != 2 {
		t.Errorf("len %d evicted %d, want 1 and 2", r.Len(), r.Evicted())
	}
}

func TestRingEachStopsEarly(t *testing.T) {
	r := New[int](3)
	for i := 1; i <= 5; i++ { // wrapped: holds 3 4 5
		r.Push(i)
	}
	var seen []int
	r.Each(func(v int) bool {
		seen = append(seen, v)
		return v != 4
	})
	if !reflect.DeepEqual(seen, []int{3, 4}) {
		t.Errorf("early stop visited %v, want [3 4]", seen)
	}
}

func TestRingRejectsZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestRingSelect(t *testing.T) {
	r := New[int](6)
	for i := 1; i <= 10; i++ { // wrapped: holds 5..10
		r.Push(i)
	}
	even := func(v int) bool { return v%2 == 0 }
	for _, tc := range []struct {
		limit int
		want  []int
	}{
		{0, []int{6, 8, 10}},
		{2, []int{8, 10}},
		{5, []int{6, 8, 10}},
	} {
		if got := r.Select(even, tc.limit); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Select(even, %d) = %v, want %v", tc.limit, got, tc.want)
		}
	}
	if got := r.Select(func(int) bool { return false }, 0); len(got) != 0 || got == nil {
		t.Errorf("Select(none) = %#v, want an empty non-nil slice", got)
	}
}
