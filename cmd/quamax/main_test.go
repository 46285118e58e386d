package main

import (
	"reflect"
	"testing"

	"quamax/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	selected, unknown := selectExperiments("fig5, nope,table1,zzz,nope,fig5")
	var got []string
	for _, x := range selected {
		got = append(got, x.ID)
	}
	// Registry order, each once; every unknown ID, once, in the order given.
	if want := []string{"table1", "fig5"}; !reflect.DeepEqual(got, want) {
		t.Errorf("selected %v, want %v", got, want)
	}
	if want := []string{`"nope"`, `"zzz"`}; !reflect.DeepEqual(unknown, want) {
		t.Errorf("unknown %v, want %v", unknown, want)
	}
	if all, unknown := selectExperiments("all"); len(all) != len(experiments.Registry) || unknown != nil {
		t.Errorf("all selected %d of %d, unknown %v", len(all), len(experiments.Registry), unknown)
	}
}
