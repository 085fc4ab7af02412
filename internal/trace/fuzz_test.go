package trace

import (
	"bytes"
	"strings"
	"testing"
)

func FuzzReadCSVNeverPanics(f *testing.F) {
	var valid bytes.Buffer
	l := &Log{}
	l.Append(Record{Index: 0, DurS: 0.1, Uops: 1e8, Actual: 3})
	if err := l.WriteCSV(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add("")
	f.Add("a,b,c\n1,2,3\n")
	f.Add(strings.Repeat(",", 15) + "\n")
	f.Fuzz(func(t *testing.T, s string) {
		// Must never panic; errors are fine.
		log, err := ReadCSV(strings.NewReader(s))
		if err == nil && log == nil {
			t.Fatal("nil log with nil error")
		}
	})
}
