// goflow-load is the repository's benchmark. It is a module of its own
// so that the benchmark builds from its own build file; the replace
// directive lets it call the layers' public functions directly.
module github.com/urbancivics/goflow/cmd/goflow-load

go 1.22

require github.com/urbancivics/goflow v0.0.0

replace github.com/urbancivics/goflow => ../..
