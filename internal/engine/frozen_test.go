package engine

// frozenRowPath holds the rowsDigest of every (plan, seed) cell of
// columnarPlans(t, 1500) as the parallel row-at-a-time executor produced it
// in the last tree that had one, recorded by a run in which row ≡ columnar
// was asserted row for row at workers {1, 2, 4, 8}.
var frozenRowPath = map[string]string{
	"fused-block seed=1":                      "f79abb01de429909213e00488e6725861b182f5dd466b9e3974866323aa7797e",
	"fused-block seed=2":                      "2f6a264bbec424b928739e54ea10677aa19a9534123f12453fbbfc931d4badb5",
	"fused-scan-sample-select-project seed=1": "9dafea7601d9f67e07cb04e158e7807734cc5f0498e0eb1f7a13c35a20778326",
	"fused-scan-sample-select-project seed=2": "3452501b4d86353e5c8ea553726f9be84059dad62d21c40fae67bd541d2d53e7",
	"intersect seed=1":                        "b5c571f310e19b19b9961a2b660e99f18ecc5b44746dc096defed27791e7067f",
	"intersect seed=2":                        "b5c571f310e19b19b9961a2b660e99f18ecc5b44746dc096defed27791e7067f",
	"query1-join seed=1":                      "411f7feff1a60f8726d63a9d662ab2f11b0f1eaf03acb51dbd92345094d42129",
	"query1-join seed=2":                      "2b9d102895dafda00f4135d53151384f184652621756c756797b37052b1f399d",
	"sample-above-select seed=1":              "215cfdc4f5b7cbdeb542edef832d5df945466c09d92f307a6b64d590d1b08373",
	"sample-above-select seed=2":              "2c44719fa3a630913da1779f0d1d5c976faea17d78ca5e82b0dee9deaaf4c5a2",
	"theta-sampled seed=1":                    "c56ada224d2db2dd829844c35740e13dca96bac942af02fabb4989ab179b5e00",
	"theta-sampled seed=2":                    "696f1395e5ac58acce2ef5311b6cb2594059809ced5127b3b91ca75db2ac3721",
	"union seed=1":                            "47ba81ba51e06d6232a9807c98250abc1e403d89cdeb6b03ed7b7bea05def1b9",
	"union seed=2":                            "47ba81ba51e06d6232a9807c98250abc1e403d89cdeb6b03ed7b7bea05def1b9",
	"wor-then-select seed=1":                  "cf651986770399796dff085a92484de5b46bad4566c5d92c8e2708f502873bc1",
	"wor-then-select seed=2":                  "b52a5330dc809f8b6633a2eb6af58197b8edcd3e1a7a954da6e9ee690c5c8bb3",
}
