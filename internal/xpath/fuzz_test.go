package xpath

import (
	"errors"
	"testing"
)

// FuzzParseXPath asserts the query parser's hardening contract on
// arbitrary input: every failure is a typed error (ErrSyntax or
// ErrLimit, never a panic or an unclassified error), and every accepted
// expression round-trips through String() and has the first step
// FirstStep reads without parsing.
func FuzzParseXPath(f *testing.F) {
	seeds := []string{
		"//a",
		"/bib/article/author",
		"//article[author/email]",
		`//a[.="v"]`,
		`//a[b = "v"][.//c]`,
		"//a[b=\"back\\slash \x7f\xff\"][c='say \"hi\"']",
		"//a[b[c[d]]]//e",
		"/a [ b ] /c",
		"//",
		"/a[",
		"]]][[[",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			if !errors.Is(err, ErrSyntax) && !errors.Is(err, ErrLimit) {
				t.Fatalf("Parse(%q): unclassified error %v", s, err)
			}
			return
		}
		axis, name, ok := FirstStep(s)
		if first := p.Steps[0]; !ok || axis != first.Axis || name != first.Name {
			t.Fatalf("FirstStep(%q) = %v %q %t, Parse's first step is %v %q", s, axis, name, ok, first.Axis, first.Name)
		}
		out := p.String()
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("String() output %q (from %q) does not re-parse: %v", out, s, err)
		}
		if p2.String() != out {
			t.Fatalf("unstable round trip: %q -> %q -> %q", s, out, p2.String())
		}
	})
}
