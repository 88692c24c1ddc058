package shiftsplit

// stackMatrixPinned holds TestStackMatrixPinned's expectations: per case, the
// observation after maintenance, the data file's length and sha256, and the
// observation after reopening. Recorded at commit 8e2a980, before the single
// stack assembly existed. Five deliberate changes moved literals since: the
// epoch builder's staged reads fixed the standard-form durable+versioned
// serve* transform (answers, data file, and on the mapped stacks the reads
// staging now serves); non-standard root-path points moved onto the
// range-sum kernel (every non-standard answer digest: same blocks, values
// differing in the last bits); the non-standard range-sum kernel came to
// fold cut-set groups tile by tile instead of cut cells face by face (every
// non-standard answer digest again, 45b23c0f23a1ab6f → a434081bd508e51a:
// same blocks, the last bits moved by the fold order; no io=, cache=,
// epoch=, health= or file= field moved); and an epoch flip on a
// non-durable, file-backed store came to sync the device through the
// Counting (the syncs field of the first io= on the twenty
// file/durable=false,versioned=true cases, 0 → 9, one per flip: before, the
// flips never reached the device's Sync). A fifth: TransformChunked came to
// replace the store, reading a block the call has not written yet as zeros
// without I/O. Only the 22 standard-form cases without the epoch layer
// (mem/plain, mem/durable and the twenty file/versioned=false cases) moved:
// there the R1 engine had read every block once before its first write, so
// the post-maintenance reads fall by exactly the 32² store's NumBlocks at
// TileBits 2, 121 (1271 → 1150; MappedReads by the same 121 on mapped cases;
// on the two in-memory cases, whose re-query runs on the same handle, the
// second io= too, 2214 → 2093). On serve-cache* cases those reads were cache
// misses: misses and loads 1025 → 904, evictions 769 → 718, hit rate
// 0.193548 → 0.213913. No ans=, file=, epoch= or write count moved, nor any
// versioned case or reopen line: a versioned store reads an unwritten block
// as zeros without I/O already, and the non-standard engine never reads.
// A sixth: the epoch flip became shadow-paged, which moved the 44 versioned
// cases (two in memory and twenty on file per form) and nothing else. Open
// reads both superblock slots and the table pages the current one points
// to, two per value now: 2 + ⌈121/32⌉ = 6 blocks on the standard 32² store
// at TileBits 2 (121 blocks) where format 1 read 1 + ⌈121/16⌉ = 9, and
// 2 + 3 = 5 against 1 + 5 = 6 on the non-standard one, so the first io=
// reads gain 1 (1151 → 1152, 667 → 668; the in-memory re-query 2094 → 2095)
// and a reopen's io= lose 3 and 1 (952 → 949, 648 → 647). Writes: the
// flips write their superblock slot (9), the first flip also an epoch-0
// slot 0 (1), and only the table pages their batch dirtied, copy-on-write:
// 328 data writes + 30 = 358 (was + 43 = 371) standard, 93 + 23 = 116 (was
// + 27 = 120) non-standard. Syncs: each flip syncs twice through the
// Counting, 9 × 2 = 18, where the durable and in-memory cases synced
// nothing and the non-durable file cases once. epoch=: the high-water mark
// 139 → 136 and 78 → 77 (two slots and packed pages against one superblock
// and the full table). The data files are laid out anew (every file=
// digest and length: 20016 → 19872 bytes durable and 17792 → 17664 plain
// standard, 11232 → 11376 and 9984 → 10112 non-standard, whose file keeps
// a block the mark has since come down past). On the standard
// serve-cache* cases the new physical ids fall in other cache shards: hits
// 248 → 245, misses and loads 695 → 698, evictions 679 → 682, hit rate
// 0.262990 → 0.259809, so the first io= reads 903 → 907. On the standard
// durable mapped cases every read now comes through the mapping
// (MappedReads 1016 → 1152 and 768 → 907): the builder no longer reads the
// blocks its epoch wrote through the Durable's staging.
// A seventh: the first flip came to retire slot 0 once epoch 1 is durable,
// so that a rotted slot 1 fails the open instead of opening the empty
// epoch 0. One more slot write and one more sync: on the 44 versioned
// cases the writes and syncs of the first io= (and of the in-memory
// re-query's) each gain 1 (358/18 → 359/19 standard, 116/18 → 117/19
// non-standard). No read, cache=, epoch=, health=, ans= or file= field
// moved: the next flip overwrites slot 0 with epoch 2 either way.
// An eighth: every file store came to read through its mapping, and
// StoreOptions.Mapped to be ignored. The 40 mapped=false file cases (the
// ten durable ones without Versioned were already pinned under their
// durable+versioned twin) are now held to their mapped=true twin's pin,
// and their 30 literals went. In each, only the last io= field (the
// mapped reads, 0 before) moved, to its twin's value; the kept literals
// are untouched. Lending cache hits to the query arena moved no field.
// A ninth: both forms' chunked transforms became one engine, z-ordered
// chunks bucketed with MergeBlock's kernels into a write-once sink. On
// every standard case the first io= reads and writes fell by 135: the R1
// engine's 16 chunks of 8² (chunk bits 3) each touched 4 tiles per
// dimension, 16 blocks, so it wrote 256 and read back the 135 it had
// written before; the sink writes each of the 121 blocks once and reads
// none (1150/328 → 1015/193, versioned 1152/359 → 1017/224, the in-memory
// re-query 2093 → 1958 and 2095 → 1960, MappedReads with the reads). On
// the non-versioned standard serve-cache* cases those were cache misses:
// misses and loads 904 → 769, evictions 718 → 693, hits unchanged. On the
// versioned serve-cache* cases of both forms the blocks land at other
// physical ids (written once each, a chunk's completed blocks ascending,
// where R1 rewrote them and the crest wrote them one by one), which fall
// in other cache shards: standard hits 191 → 240 (first io= reads 961 →
// 777, the reopen's 762 → 713), non-standard 216 → 196 (452 → 472 and
// 434 → 454). Every ans= and file= digest moved, on both forms: the sums
// fold in another order (z-order chunks, and on the non-standard form
// the split kernel's attenuated chunk averages instead of the crest's
// fold), which moves values in the last bits; no file length, epoch=,
// health= or non-standard io= field outside serve-cache* moved.
var stackMatrixPinned = map[string]string{
	"non-standard/file/durable=false,versioned=false,mapped=true/create":              "io=666/93/0/9/666 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=8832/834e78e0647260260ea4806589a8e208a824488841aa9838a7c2d26547dd39e1\nio=642/0/0/0/642 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=false,mapped=true/open":                "io=666/93/0/9/666 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=8832/834e78e0647260260ea4806589a8e208a824488841aa9838a7c2d26547dd39e1\nio=642/0/0/0/642 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=false,mapped=true/serve":               "io=666/93/0/9/666 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=8832/834e78e0647260260ea4806589a8e208a824488841aa9838a7c2d26547dd39e1\nio=642/0/0/0/642 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=false,mapped=true/serve-cache":         "io=457/93/0/9/457 cache=209/457/457/417/0/16/0.313814 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=8832/834e78e0647260260ea4806589a8e208a824488841aa9838a7c2d26547dd39e1\nio=433/0/0/0/433 cache=209/433/433/417/0/16/0.325545 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=false,mapped=true/serve-cache-breaker": "io=457/93/0/9/457 cache=209/457/457/417/0/16/0.313814 health=ok/0/0/closed ans=4aabc4ba075f739c\nfile=8832/834e78e0647260260ea4806589a8e208a824488841aa9838a7c2d26547dd39e1\nio=433/0/0/0/433 cache=209/433/433/417/0/16/0.325545 health=ok/0/0/closed ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=true,mapped=true/create":               "io=668/117/19/9/668 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=10752/491d5e80b450e528d2a92e8c3da8626020c2da39a5c8051b11fd1e7d8bb0c03b\nio=650/0/0/0/650 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=true,mapped=true/open":                 "io=668/117/19/9/668 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=10752/491d5e80b450e528d2a92e8c3da8626020c2da39a5c8051b11fd1e7d8bb0c03b\nio=650/0/0/0/650 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=true,mapped=true/serve":                "io=668/117/19/9/668 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=10752/491d5e80b450e528d2a92e8c3da8626020c2da39a5c8051b11fd1e7d8bb0c03b\nio=650/0/0/0/650 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=true,mapped=true/serve-cache":          "io=472/117/19/9/472 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=10752/491d5e80b450e528d2a92e8c3da8626020c2da39a5c8051b11fd1e7d8bb0c03b\nio=454/0/0/0/454 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=false,versioned=true,mapped=true/serve-cache-breaker":  "io=472/117/19/9/472 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/closed ans=4aabc4ba075f739c\nfile=10752/491d5e80b450e528d2a92e8c3da8626020c2da39a5c8051b11fd1e7d8bb0c03b\nio=454/0/0/0/454 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/closed ans=4aabc4ba075f739c",
	"non-standard/file/durable=true,versioned=true,mapped=true/create":                "io=668/117/19/9/668 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=12096/cecdc08c5f05837c70896f635ca4d25ed853f0d48fdff2db094427824325b1ce\nio=650/0/0/0/650 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=true,versioned=true,mapped=true/open":                  "io=668/117/19/9/668 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=12096/cecdc08c5f05837c70896f635ca4d25ed853f0d48fdff2db094427824325b1ce\nio=650/0/0/0/650 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=true,versioned=true,mapped=true/serve":                 "io=668/117/19/9/668 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=12096/cecdc08c5f05837c70896f635ca4d25ed853f0d48fdff2db094427824325b1ce\nio=650/0/0/0/650 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=true,versioned=true,mapped=true/serve-cache":           "io=472/117/19/9/472 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nfile=12096/cecdc08c5f05837c70896f635ca4d25ed853f0d48fdff2db094427824325b1ce\nio=454/0/0/0/454 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/file/durable=true,versioned=true,mapped=true/serve-cache-breaker":   "io=472/117/19/9/472 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/closed ans=4aabc4ba075f739c\nfile=12096/cecdc08c5f05837c70896f635ca4d25ed853f0d48fdff2db094427824325b1ce\nio=454/0/0/0/454 cache=196/446/446/430/0/16/0.305296 epoch=9/0/9/6/4/84 health=ok/0/0/closed ans=4aabc4ba075f739c",
	"non-standard/mem/durable+versioned":                                              "io=668/117/19/9/0 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nio=1310/117/19/10/0 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/mem/plain":                                                          "io=666/93/0/9/0 health=ok/0/0/ ans=4aabc4ba075f739c\nio=1308/93/0/10/0 health=ok/0/0/ ans=4aabc4ba075f739c",
	"non-standard/mem/versioned":                                                      "io=668/117/19/9/0 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c\nio=1310/117/19/10/0 epoch=9/0/9/6/4/84 health=ok/0/0/ ans=4aabc4ba075f739c",
	"standard/file/durable=false,versioned=false,mapped=true/create":                  "io=1015/193/0/9/1015 health=ok/0/0/ ans=97d986e84e876191\nfile=15488/6eed5d8c28541105f0aec75babb9097fc30f9035447debce727014ba6ec2e245\nio=943/0/0/0/943 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=false,mapped=true/open":                    "io=1015/193/0/9/1015 health=ok/0/0/ ans=97d986e84e876191\nfile=15488/6eed5d8c28541105f0aec75babb9097fc30f9035447debce727014ba6ec2e245\nio=943/0/0/0/943 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=false,mapped=true/serve":                   "io=1015/193/0/9/1015 health=ok/0/0/ ans=97d986e84e876191\nfile=15488/6eed5d8c28541105f0aec75babb9097fc30f9035447debce727014ba6ec2e245\nio=943/0/0/0/943 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=false,mapped=true/serve-cache":             "io=769/193/0/9/769 cache=246/769/769/693/0/16/0.242365 health=ok/0/0/ ans=97d986e84e876191\nfile=15488/6eed5d8c28541105f0aec75babb9097fc30f9035447debce727014ba6ec2e245\nio=697/0/0/0/697 cache=246/697/697/681/0/16/0.260870 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=false,mapped=true/serve-cache-breaker":     "io=769/193/0/9/769 cache=246/769/769/693/0/16/0.242365 health=ok/0/0/closed ans=97d986e84e876191\nfile=15488/6eed5d8c28541105f0aec75babb9097fc30f9035447debce727014ba6ec2e245\nio=697/0/0/0/697 cache=246/697/697/681/0/16/0.260870 health=ok/0/0/closed ans=97d986e84e876191",
	"standard/file/durable=false,versioned=true,mapped=true/create":                   "io=1017/224/19/9/1017 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=19072/cb6aa796d889777b2917e899e3b60ed8203172fb487a4865c999f5ee2a66d889\nio=953/0/0/0/953 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=true,mapped=true/open":                     "io=1017/224/19/9/1017 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=19072/cb6aa796d889777b2917e899e3b60ed8203172fb487a4865c999f5ee2a66d889\nio=953/0/0/0/953 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=true,mapped=true/serve":                    "io=1017/224/19/9/1017 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=19072/cb6aa796d889777b2917e899e3b60ed8203172fb487a4865c999f5ee2a66d889\nio=953/0/0/0/953 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=true,mapped=true/serve-cache":              "io=777/224/19/9/777 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=19072/cb6aa796d889777b2917e899e3b60ed8203172fb487a4865c999f5ee2a66d889\nio=713/0/0/0/713 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=false,versioned=true,mapped=true/serve-cache-breaker":      "io=777/224/19/9/777 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/closed ans=97d986e84e876191\nfile=19072/cb6aa796d889777b2917e899e3b60ed8203172fb487a4865c999f5ee2a66d889\nio=713/0/0/0/713 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/closed ans=97d986e84e876191",
	"standard/file/durable=true,versioned=true,mapped=true/create":                    "io=1017/224/19/9/1017 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=21456/37a052962bb36e7a2584bf3fe44607383da40a534ce329e0eecd3e477dcbf7b3\nio=953/0/0/0/953 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=true,versioned=true,mapped=true/open":                      "io=1017/224/19/9/1017 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=21456/37a052962bb36e7a2584bf3fe44607383da40a534ce329e0eecd3e477dcbf7b3\nio=953/0/0/0/953 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=true,versioned=true,mapped=true/serve":                     "io=1017/224/19/9/1017 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=21456/37a052962bb36e7a2584bf3fe44607383da40a534ce329e0eecd3e477dcbf7b3\nio=953/0/0/0/953 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=true,versioned=true,mapped=true/serve-cache":               "io=777/224/19/9/777 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nfile=21456/37a052962bb36e7a2584bf3fe44607383da40a534ce329e0eecd3e477dcbf7b3\nio=713/0/0/0/713 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/file/durable=true,versioned=true,mapped=true/serve-cache-breaker":       "io=777/224/19/9/777 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/closed ans=97d986e84e876191\nfile=21456/37a052962bb36e7a2584bf3fe44607383da40a534ce329e0eecd3e477dcbf7b3\nio=713/0/0/0/713 cache=240/703/703/687/0/16/0.254507 epoch=9/0/9/11/11/149 health=ok/0/0/closed ans=97d986e84e876191",
	"standard/mem/durable+versioned":                                                  "io=1017/224/19/9/0 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nio=1960/224/19/10/0 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
	"standard/mem/plain":                                                              "io=1015/193/0/9/0 health=ok/0/0/ ans=97d986e84e876191\nio=1958/193/0/10/0 health=ok/0/0/ ans=97d986e84e876191",
	"standard/mem/versioned":                                                          "io=1017/224/19/9/0 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191\nio=1960/224/19/10/0 epoch=9/0/9/11/11/149 health=ok/0/0/ ans=97d986e84e876191",
}
