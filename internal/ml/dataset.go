// Package ml implements the machine-learning side of Xentry's VM transition
// detection from scratch: an entropy/information-gain decision tree and the
// random-tree variant the paper selects (considering ⌊log₂(#features)⌋+1
// randomly drawn features per split, per WEKA's RandomTree). Models operate
// on the five integer features of paper Table I — VM exit reason plus four
// performance-counter readings — and compile into pure integer-comparison
// rule chains cheap enough to evaluate at every VM entry.
package ml

import "fmt"

// NumFeatures is the feature-vector width (paper Table I).
const NumFeatures = 5

// Feature indices.
const (
	// FeatVMER is the VM exit reason.
	FeatVMER = iota
	// FeatRT is INST_RETIRED.
	FeatRT
	// FeatBR is BR_INST_RETIRED.
	FeatBR
	// FeatRM is MEM_INST_RETIRED.LOADS.
	FeatRM
	// FeatWM is MEM_INST_RETIRED.STORES.
	FeatWM
)

// FeatureName returns the paper's synonym for a feature index.
func FeatureName(f int) string {
	switch f {
	case FeatVMER:
		return "VMER"
	case FeatRT:
		return "RT"
	case FeatBR:
		return "BR"
	case FeatRM:
		return "RM"
	case FeatWM:
		return "WM"
	}
	return fmt.Sprintf("f%d", f)
}

// Sample is one observation of a hypervisor execution: the feature vector
// and whether the execution was correct.
type Sample struct {
	Features [NumFeatures]uint64
	Correct  bool
}

// NewSample builds a sample from the raw feature values.
func NewSample(vmer, rt, br, rm, wm uint64, correct bool) Sample {
	return Sample{Features: [NumFeatures]uint64{vmer, rt, br, rm, wm}, Correct: correct}
}

// Dataset is a labelled sample collection.
type Dataset []Sample

// Counts returns the number of correct and incorrect samples.
func (d Dataset) Counts() (correct, incorrect int) {
	for _, s := range d {
		if s.Correct {
			correct++
		} else {
			incorrect++
		}
	}
	return
}

// Majority returns the majority class (true = correct).
func (d Dataset) Majority() bool { return majority(d.Counts()) }

// majority is the class of c correct and i incorrect samples. Ties favour
// correct, the safe default for a detector (prefer false negatives over
// constant false positives when evidence is absent).
func majority(c, i int) bool { return c >= i }
