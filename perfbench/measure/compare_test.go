package measure

import "testing"

func TestCompare(t *testing.T) {
	base := []float64{10, 11, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i] = b - 2
		slower[i] = b + 2
	}
	cases := []struct {
		name         string
		head         []float64
		higherBetter bool
		want         Verdict
	}{
		{"lower is better, head lower", faster, false, Improved},
		{"lower is better, head higher", slower, false, Worse},
		{"higher is better, head higher", slower, true, Improved},
		{"same runs", base, false, Unresolved},
	}
	for _, c := range cases {
		got, err := Compare(base, c.head, c.higherBetter)
		if err != nil {
			t.Fatal(err)
		}
		if got.Verdict != c.want {
			t.Errorf("%s: %v, want %v (%+v)", c.name, got.Verdict, c.want, got)
		}
	}

	// Head wins 8 of 10 pairs by a wide margin: not the nine tenths the
	// rule asks for.
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = base[0]+1, base[1]+1
	if got, _ := Compare(base, mixed, false); got.Verdict != Unresolved || got.HeadWins != 8 {
		t.Errorf("8 of 10 pairs: %+v, want unresolved with 8 head wins", got)
	}

	// Head wins every pair, but by less than the base runs' spread.
	near := make([]float64, len(base))
	for i, b := range base {
		near[i] = b - 0.01
	}
	if got, _ := Compare(base, near, false); got.Verdict != Unresolved || got.HeadWins != 10 {
		t.Errorf("within the base spread: %+v, want unresolved with 10 head wins", got)
	}

	if _, err := Compare([]float64{1}, []float64{2}, false); err == nil {
		t.Error("one run a side: want an error")
	}
}
