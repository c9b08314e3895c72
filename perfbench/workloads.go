package main

// workloads lists the benchmark's workloads; README.md records why
// each was chosen and which layers it stresses.
var workloads = []workload{
	{name: "study", maxprocs: 1, coldSetup: true, prepare: prepareStudy},
	{name: "edit-loop", maxprocs: 1, coldSetup: true, prepare: prepareEditLoop},
	{name: "serve", prepare: prepareServe},
	{name: "deep-expr", maxprocs: 1, coldSetup: true, prepare: prepareDeepExpr},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
