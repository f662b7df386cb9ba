package gus

// frozenRowEngine holds the resultDigest of every cell of
// TestColumnarMatches, TestColumnarMatchesAnalyses and
// TestPreparedStringParam as the parallel row-at-a-time engine and the
// row-major estimator produced it in the last tree that had them, recorded
// by a run in which row ≡ columnar was asserted value for value at workers
// {1, 2, 4, 8}.
var frozenRowEngine = map[string]string{
	"exact":            "d24fc08d8a5910456cbc50b531c4b82dbd4fa6bbaabc710d3d0d82efbece7d7b",
	"group by":         "f66d96474d0962f9f0c09f24bf0c1e9ed0b5c69da99ea3f9d76021528b5793d9",
	"prepared cat=a":   "d83f1bd3eeb85a6a4c34fdc0b11cbc6c5e6c07e2072b95514a40cbc9fbf1e615",
	"prepared cat=b":   "afdad4342bda14a16aabd0a1e03eafb689573ec6de6b556dd5b9f5b118da26b2",
	"prepared cat=zzz": "6a38ca0208757eafb22dbd78f968de83ee41cc9009ff92f19958662031f505e2",
	"query 0 seed 1":   "e092c6347588e5816fa525b11f99fccd666cd6b7d5d4b9344141860fe7daee48",
	"query 0 seed 2":   "c7ab75d0259ccee6eb9a3f84c1dd662d4bd2da9b2c03bd313245a31dfa3cdcca",
	"query 1 seed 1":   "2a9f5c17f30dd70675c038caac8582616563e211080a1f18cfc6ba9ff5a1badd",
	"query 1 seed 2":   "56a7df59c3fe40e43f9296d47f333f52f182c5386f099b52c019aba95af1fe28",
	"query 2 seed 1":   "9845fb7eeba92a8890ec47e8a7368c53ade647153c6ebe92e6c75a3b211ce3b4",
	"query 2 seed 2":   "5053cd616e6fac589a28118900962e7ffa988880b9200bb148a85e7a461c73ea",
	"query 3 seed 1":   "6a3fb08542f165a0253b7316b6896902ddab60c0f80be36d56bfcecd47a0df9b",
	"query 3 seed 2":   "7c9c9f4fc77c36e37d160a079d2e9a21f3d9a91019143120b34423a40e0a5a91",
	"query 4 seed 1":   "acd9b6e0c571d434703e91ce8d4f751ff64ecb2acb8e265de3a40001ac13f91b",
	"query 4 seed 2":   "d7bead2572fa4616987d946303ba91124c645ade013c140943ba850b309b80eb",
	"query 5 seed 1":   "30b2e5217a2f9c52ad30ba12f758ea792bc844bfb86f690a513223de307d890b",
	"query 5 seed 2":   "91c17daceb44a43746ebffdbd3974381a09e59f72e84be4673eb4f061d10d01f",
	"robustness":       "72fb88b318adc4f6293845b6289e1956f9191053aea9ab883cf200b415c23727",
	"subsample":        "a58f6a2c5efe48761cd4ce8d5f82a2648ad857de9374d2f5f6d2031de8688c96",
}
