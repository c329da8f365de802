package integrate_test

// goldenFold is what the pooled engine with its digest-keyed verdict table
// (Config.Memo nil) recorded for one goldenCase.
type goldenFold struct {
	label        string
	digest       uint64
	nodes        int64
	worlds       string
	choicePoints int
	steps        []goldenRecord
}

// goldenRecord is one recorded integration: its error, or its Stats in the
// recorded field order — OracleCalls, MustPairs, CannotPairs,
// UndecidedPairs, Components, LargestComponent, MatchingsEnumerated,
// MatchingsPruned, PossibilitiesBuilt, IncompatibleMerges,
// TruncatedComponents, ValueConflicts, VerdictMemoHits, MergeMemoHits,
// SplicedChildren.
type goldenRecord struct {
	stats [15]int
	err   string
}

var goldenFolds = []goldenFold{
	{"random catalogs 0", 0x91fe3cb611f82bb6, 737, "3584", 12, []goldenRecord{{stats: [15]int{29, 5, 14, 10, 13, 12, 77, 72, 5, 3, 0, 0, 19, 0, 6}}, {stats: [15]int{34, 4, 18, 12, 17, 7, 27, 6, 27, 2, 0, 5, 32, 0, 11}}, {stats: [15]int{4, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6}}}},
	{"random catalogs 1", 0x2c117e319aef9623, 203, "32", 5, []goldenRecord{{stats: [15]int{7, 2, 2, 3, 4, 4, 7, 6, 1, 1, 0, 0, 4, 0, 2}}, {stats: [15]int{9, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 9}}, {stats: [15]int{25, 5, 16, 4, 9, 1, 8, 1, 8, 1, 0, 1, 5, 0, 9}}}},
	{"random catalogs 2", 0x5483edafbdee1abd, 294, "1176", 11, []goldenRecord{{stats: [15]int{19, 1, 14, 4, 5, 2, 9, 0, 11, 0, 0, 2, 2, 0, 11}}, {stats: [15]int{29, 5, 15, 9, 14, 1, 19, 3, 20, 1, 0, 4, 0, 0, 4}}, {stats: [15]int{4, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}}}},
	{"random catalogs 3", 0x81b91a5270d20c8d, 245, "24", 4, []goldenRecord{{stats: [15]int{9, 3, 5, 1, 4, 2, 3, 2, 1, 1, 0, 0, 7, 0, 4}}, {stats: [15]int{41, 5, 25, 11, 14, 3, 11, 5, 7, 3, 0, 1, 11, 0, 6}}, {stats: [15]int{6, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 13}}}},
	{"random catalogs 4", 0xe41d348b4e536d81, 390, "35", 6, []goldenRecord{{stats: [15]int{38, 6, 17, 15, 19, 4, 16, 7, 11, 4, 0, 2, 6, 0, 6}}, {stats: [15]int{19, 1, 12, 6, 6, 2, 8, 2, 8, 1, 0, 2, 2, 0, 7}}, {stats: [15]int{11, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11, 0, 11}}}},
	{"random catalogs 5", 0x38c9c0e28432ea74, 361, "140", 8, []goldenRecord{{stats: [15]int{6, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0, 9}}, {stats: [15]int{24, 3, 11, 10, 11, 4, 12, 6, 8, 3, 0, 2, 6, 0, 8}}, {stats: [15]int{22, 1, 15, 6, 7, 3, 11, 2, 12, 1, 0, 3, 10, 0, 10}}}},
	{"random catalogs 6", 0x1aa4b61d819ecc11, 411, "252", 9, []goldenRecord{{stats: [15]int{33, 6, 13, 14, 18, 4, 25, 6, 24, 2, 0, 4, 4, 0, 11}}, {stats: [15]int{3, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4}}, {stats: [15]int{21, 3, 12, 6, 8, 2, 5, 3, 2, 2, 0, 0, 5, 0, 4}}}},
	{"random catalogs 7", 0x26de65eaf6ec1862, 312, "40", 6, []goldenRecord{{stats: [15]int{12, 3, 4, 5, 7, 3, 4, 3, 1, 2, 0, 0, 4, 0, 1}}, {stats: [15]int{33, 5, 14, 14, 17, 4, 15, 5, 13, 3, 0, 3, 17, 0, 5}}, {stats: [15]int{37, 5, 21, 11, 14, 5, 6, 5, 1, 4, 0, 0, 26, 0, 8}}}},
	{"random catalogs 8", 0x6b0962d86a03c671, 389, "2688", 10, []goldenRecord{{stats: [15]int{9, 3, 3, 3, 6, 3, 10, 0, 11, 0, 0, 1, 6, 0, 10}}, {stats: [15]int{8, 3, 4, 1, 4, 2, 6, 0, 6, 0, 0, 0, 2, 0, 5}}, {stats: [15]int{12, 2, 5, 5, 7, 2, 13, 2, 14, 0, 0, 3, 4, 0, 5}}}},
	{"random catalogs 9", 0x320713903a3a8155, 406, "128", 7, []goldenRecord{{stats: [15]int{21, 1, 13, 7, 7, 3, 7, 2, 6, 2, 0, 1, 7, 0, 8}}, {stats: [15]int{24, 1, 16, 7, 8, 2, 5, 3, 2, 2, 0, 0, 10, 0, 6}}, {stats: [15]int{42, 5, 28, 9, 13, 4, 11, 4, 8, 3, 0, 1, 18, 0, 9}}}},
	{"random catalogs 10", 0xcf70b4697298ec81, 614, "17576", 17, []goldenRecord{{stats: [15]int{24, 1, 16, 7, 7, 4, 12, 2, 13, 1, 0, 3, 4, 0, 10}}, {stats: [15]int{17, 2, 6, 9, 14, 2, 26, 4, 30, 0, 0, 5, 5, 0, 7}}, {stats: [15]int{21, 2, 12, 7, 9, 1, 6, 3, 3, 3, 0, 0, 0, 0, 3}}}},
	{"random catalogs 11", 0xeafe519388c8001a, 551, "78", 6, []goldenRecord{{stats: [15]int{5, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 8}}, {stats: [15]int{58, 8, 31, 19, 34, 4, 25, 14, 11, 8, 0, 0, 37, 0, 6}}, {stats: [15]int{26, 4, 15, 7, 11, 4, 15, 3, 15, 2, 0, 3, 6, 0, 11}}}},
	{"messy sources 1", 0x18905a45fc5a6ef2, 3701, "950079040547180544", 73, []goldenRecord{{stats: [15]int{84, 14, 44, 26, 47, 5, 84, 7, 95, 0, 0, 15, 29, 0, 22}}, {stats: [15]int{23, 5, 16, 2, 7, 1, 9, 0, 10, 0, 0, 1, 2, 0, 16}}, {stats: [15]int{51, 2, 37, 12, 12, 3, 24, 4, 28, 0, 0, 8, 7, 0, 35}}, {stats: [15]int{113, 15, 75, 23, 42, 4, 68, 7, 76, 0, 0, 13, 37, 0, 36}}, {err: "integrate: root elements: integrate: conflicting must-match decisions: in the <movie> group"}, {stats: [15]int{81, 9, 51, 21, 29, 4, 54, 7, 61, 0, 0, 13, 30, 0, 40}}, {err: "integrate: root elements: integrate: conflicting must-match decisions: in the <movie> group"}}},
	{"messy sources 2", 0x809e1f042a3d6ca, 9875, "885420839166529441628160000", 115, []goldenRecord{{stats: [15]int{69, 10, 40, 19, 33, 4, 57, 6, 64, 0, 0, 12, 25, 0, 28}}, {stats: [15]int{93, 10, 72, 11, 32, 4, 44, 4, 46, 0, 0, 5, 35, 0, 23}}, {stats: [15]int{70, 12, 42, 16, 28, 3, 44, 4, 50, 0, 0, 10, 10, 0, 28}}, {stats: [15]int{93, 15, 57, 21, 37, 6, 67, 6, 74, 0, 0, 11, 31, 0, 31}}, {stats: [15]int{55, 14, 34, 7, 26, 3, 33, 2, 34, 0, 0, 3, 20, 0, 28}}, {stats: [15]int{103, 8, 72, 23, 35, 4, 61, 7, 70, 0, 0, 14, 29, 0, 42}}, {stats: [15]int{153, 19, 93, 41, 67, 10, 156, 14, 172, 0, 0, 24, 53, 0, 45}}}},
	{"messy sources 3", 0xd912e13b490feab0, 4715, "12947808017262690499200", 80, []goldenRecord{{stats: [15]int{88, 10, 59, 19, 37, 7, 73, 6, 81, 0, 0, 11, 40, 0, 24}}, {stats: [15]int{63, 8, 37, 18, 30, 4, 51, 7, 56, 0, 0, 11, 13, 0, 24}}, {err: "integrate: root elements: integrate: conflicting must-match decisions: in the <movie> group"}, {stats: [15]int{51, 6, 40, 5, 11, 2, 17, 2, 18, 0, 0, 3, 5, 0, 22}}, {stats: [15]int{67, 8, 42, 17, 27, 4, 45, 6, 51, 0, 0, 11, 7, 0, 31}}, {stats: [15]int{71, 11, 49, 11, 25, 1, 36, 3, 40, 0, 0, 7, 4, 0, 25}}, {stats: [15]int{123, 11, 95, 17, 34, 4, 60, 6, 65, 0, 0, 10, 29, 0, 31}}}},
	{"messy sources 7", 0x80c381fddaa0a72, 11720, "8468514192173234734080", 93, []goldenRecord{{stats: [15]int{79, 10, 40, 29, 46, 12, 123, 10, 136, 0, 0, 16, 36, 0, 35}}, {stats: [15]int{60, 13, 41, 6, 26, 2, 32, 2, 33, 0, 0, 3, 16, 0, 14}}, {stats: [15]int{49, 9, 29, 11, 19, 2, 30, 3, 34, 0, 0, 7, 3, 0, 22}}, {stats: [15]int{64, 18, 42, 4, 23, 2, 29, 1, 30, 0, 0, 2, 5, 0, 21}}, {stats: [15]int{63, 17, 29, 17, 37, 2, 54, 4, 60, 0, 0, 10, 6, 0, 27}}, {stats: [15]int{99, 17, 69, 13, 39, 4, 54, 5, 57, 0, 0, 8, 26, 0, 29}}, {stats: [15]int{140, 11, 106, 23, 43, 3, 69, 9, 77, 0, 0, 16, 31, 0, 39}}}},
	{"table1/Movie title rule/raw=false", 0x84bb61cc8a923687, 1149, "263909920", 31, []goldenRecord{{stats: [15]int{100, 11, 27, 62, 39, 9, 91, 13, 126, 0, 0, 36, 38, 0, 1}}}},
	{"table1/Movie title rule/raw=true", 0x944acf89208251a5, 1207, "477702784", 31, []goldenRecord{{stats: [15]int{100, 11, 27, 62, 39, 9, 91, 13, 126, 0, 0, 36, 38, 0, 1}}}},
	{"table1/Genre and movie title rule/raw=false", 0xb9ef1c3509a72dea, 989, "265216", 25, []goldenRecord{{stats: [15]int{100, 11, 58, 31, 47, 4, 81, 13, 90, 0, 0, 22, 38, 0, 19}}}},
	{"table1/Genre and movie title rule/raw=true", 0x40f48217e03458a4, 989, "265216", 25, []goldenRecord{{stats: [15]int{100, 11, 58, 31, 47, 4, 81, 13, 90, 0, 0, 22, 38, 0, 19}}}},
	{"table1/Genre, movie title and year rule/raw=false", 0xe9699ffd7c2c9685, 323, "112", 7, []goldenRecord{{stats: [15]int{36, 11, 18, 7, 21, 1, 28, 1, 31, 0, 0, 4, 3, 0, 6}}}},
	{"table1/Genre, movie title and year rule/raw=true", 0x84616603fb8d664, 323, "112", 7, []goldenRecord{{stats: [15]int{36, 11, 18, 7, 21, 1, 28, 1, 31, 0, 0, 4, 3, 0, 6}}}},
	{"confusing12/Movie title rule/raw=false", 0x53a74f5bef1bcd99, 4525, "4023812732032", 61, []goldenRecord{{stats: [15]int{166, 17, 53, 96, 79, 9, 198, 27, 261, 0, 0, 72, 116, 0, 2}}}},
	{"confusing12/Movie title rule/raw=true", 0x7dc335b41935b9d, 4727, "9176986548928", 61, []goldenRecord{{stats: [15]int{166, 17, 53, 96, 79, 9, 198, 27, 261, 0, 0, 72, 116, 0, 2}}}},
	{"confusing12/Genre and movie title rule/raw=false", 0x8a1984c4b5ed2fae, 4023, "251477824", 49, []goldenRecord{{stats: [15]int{166, 17, 91, 58, 96, 8, 183, 27, 202, 0, 0, 46, 116, 0, 38}}}},
	{"confusing12/Genre and movie title rule/raw=true", 0x55af61f5e3329d00, 4023, "251477824", 49, []goldenRecord{{stats: [15]int{166, 17, 91, 58, 96, 8, 183, 27, 202, 0, 0, 46, 116, 0, 38}}}},
	{"confusing12/Genre, movie title and year rule/raw=false", 0x16283925c2e2ffc6, 511, "12544", 14, []goldenRecord{{stats: [15]int{59, 17, 28, 14, 42, 1, 56, 2, 62, 0, 0, 8, 19, 0, 6}}}},
	{"confusing12/Genre, movie title and year rule/raw=true", 0x791b9b4f6e7d9f2b, 511, "12544", 14, []goldenRecord{{stats: [15]int{59, 17, 28, 14, 42, 1, 56, 2, 62, 0, 0, 8, 19, 0, 6}}}},
	{"typical/Movie title rule/raw=false", 0x9045aad41f2c4df9, 15133, "1386832", 44, []goldenRecord{{stats: [15]int{196, 9, 130, 57, 57, 14, 223, 22, 248, 0, 0, 47, 17, 0, 21}}}},
	{"typical/Movie title rule/raw=true", 0xedc7a748a2a827e8, 15265, "1628704", 44, []goldenRecord{{stats: [15]int{196, 9, 130, 57, 57, 14, 223, 22, 248, 0, 0, 47, 17, 0, 21}}}},
	{"typical/Genre and movie title rule/raw=false", 0xc7902a21979b7770, 14609, "62368", 37, []goldenRecord{{stats: [15]int{196, 9, 137, 50, 52, 14, 207, 22, 221, 0, 0, 36, 17, 0, 42}}}},
	{"typical/Genre and movie title rule/raw=true", 0xa03dec0e2f11561, 14609, "62368", 37, []goldenRecord{{stats: [15]int{196, 9, 137, 50, 52, 14, 207, 22, 221, 0, 0, 36, 17, 0, 42}}}},
	{"typical/Genre, movie title and year rule/raw=false", 0x4fa00a6ea99b6500, 540, "64", 6, []goldenRecord{{stats: [15]int{34, 9, 19, 6, 16, 1, 22, 0, 25, 0, 0, 3, 1, 0, 24}}}},
	{"typical/Genre, movie title and year rule/raw=true", 0x749d4069f565017e, 540, "64", 6, []goldenRecord{{stats: [15]int{34, 9, 19, 6, 16, 1, 22, 0, 25, 0, 0, 3, 1, 0, 24}}}},
	{"truncate", 0xeb19a4aefdd45538, 4082, "12575467172016", 69, []goldenRecord{{stats: [15]int{203, 17, 81, 105, 87, 10, 212, 31, 303, 0, 3, 86, 151, 0, 4}}}},
	{"random books 0", 0x566d024ea131c8dd, 340, "42", 7, []goldenRecord{{stats: [15]int{14, 2, 0, 12, 9, 6, 27, 6, 27, 0, 0, 6, 0, 0, 3}}}},
	{"random books 1", 0x7f6965bf0498df8c, 56, "7", 4, []goldenRecord{{stats: [15]int{4, 0, 0, 4, 4, 2, 9, 3, 9, 0, 0, 3, 1, 0, 1}}}},
	{"random books 2", 0x1b686c0d841c2b4c, 211, "23", 6, []goldenRecord{{stats: [15]int{17, 4, 0, 13, 9, 9, 20, 5, 20, 0, 0, 5, 0, 0, 2}}}},
	{"random books 3", 0xd2edd1d5d3961350, 175, "23", 6, []goldenRecord{{stats: [15]int{12, 2, 0, 10, 7, 9, 18, 5, 18, 0, 0, 5, 3, 0, 2}}}},
	{"random books 4", 0x168ce753b411fe95, 96, "7", 4, []goldenRecord{{stats: [15]int{4, 1, 0, 3, 6, 3, 12, 3, 12, 0, 0, 3, 4, 0, 1}}}},
	{"random books 5", 0xbc6cdb9167a4dc97, 20, "3", 2, []goldenRecord{{stats: [15]int{2, 0, 0, 2, 2, 1, 4, 1, 4, 0, 0, 1, 0, 0, 0}}}},
	{"random books 6", 0x2e388a5cffa50bd7, 64, "9", 5, []goldenRecord{{stats: [15]int{5, 0, 0, 5, 5, 2, 11, 4, 11, 0, 0, 4, 1, 0, 0}}}},
	{"random books 7", 0xb0b1faf26d07848, 31, "5", 3, []goldenRecord{{stats: [15]int{3, 0, 0, 3, 3, 1, 6, 2, 6, 0, 0, 2, 0, 0, 0}}}},
	{"random books 8", 0x1c75504837f09cc5, 19, "1", 0, []goldenRecord{{stats: [15]int{4, 3, 0, 1, 3, 2, 3, 0, 3, 0, 0, 0, 0, 0, 0}}}},
	{"random books 9", 0xe4f8a89539a76164, 169, "14", 4, []goldenRecord{{stats: [15]int{5, 1, 0, 4, 7, 6, 23, 4, 23, 0, 0, 4, 7, 0, 4}}}},
	{"random books 10", 0xa8fcbacf42c46250, 264, "25", 6, []goldenRecord{{stats: [15]int{9, 2, 0, 7, 9, 6, 26, 5, 26, 0, 0, 5, 5, 0, 4}}}},
	{"random books 11", 0xb143227a4f4d652c, 334, "32", 6, []goldenRecord{{stats: [15]int{11, 2, 0, 9, 9, 6, 26, 5, 26, 0, 0, 5, 3, 0, 4}}}},
	{"random books 12", 0x7f25f407e358578b, 158, "20", 5, []goldenRecord{{stats: [15]int{10, 2, 0, 8, 7, 4, 17, 4, 17, 0, 0, 4, 0, 0, 2}}}},
	{"random books 13", 0xd111b306d04ffa8b, 252, "41", 9, []goldenRecord{{stats: [15]int{9, 2, 0, 7, 13, 6, 34, 9, 34, 0, 0, 9, 9, 0, 0}}}},
	{"random books 14", 0xcb7bcc5a0568b8c9, 236, "31", 8, []goldenRecord{{stats: [15]int{8, 1, 0, 7, 11, 6, 31, 8, 31, 0, 0, 8, 8, 0, 2}}}},
	{"random books 15", 0xe115792cf1b3bd13, 147, "23", 6, []goldenRecord{{stats: [15]int{7, 0, 0, 7, 6, 4, 17, 5, 17, 0, 0, 5, 2, 0, 2}}}},
	{"random books 16", 0x26185b371985d0d7, 34, "3", 2, []goldenRecord{{stats: [15]int{2, 0, 0, 2, 3, 2, 7, 2, 7, 0, 0, 2, 2, 0, 2}}}},
	{"random books 17", 0x1fdbcded5ab78bb8, 102, "7", 4, []goldenRecord{{stats: [15]int{4, 0, 0, 4, 4, 3, 10, 3, 10, 0, 0, 3, 2, 0, 3}}}},
	{"random books 18", 0x2e99cf28bf12a7a5, 1126, "178", 11, []goldenRecord{{stats: [15]int{14, 3, 0, 11, 16, 9, 59, 10, 59, 0, 0, 10, 10, 0, 3}}}},
	{"random books 19", 0x57e0e8fba064e296, 96, "8", 4, []goldenRecord{{stats: [15]int{8, 2, 0, 6, 6, 3, 12, 3, 12, 0, 0, 3, 0, 0, 1}}}},
	{"random books 20", 0xb18a1c9f5620b36, 107, "9", 5, []goldenRecord{{stats: [15]int{7, 1, 0, 6, 7, 3, 14, 4, 14, 0, 0, 4, 2, 0, 0}}}},
	{"random books 21", 0x1e459d64e7420863, 89, "9", 5, []goldenRecord{{stats: [15]int{4, 0, 0, 4, 5, 3, 12, 4, 12, 0, 0, 4, 3, 0, 2}}}},
	{"random books 22", 0xd870c31002432e5d, 1026, "196", 11, []goldenRecord{{stats: [15]int{17, 3, 0, 14, 16, 9, 59, 10, 59, 0, 0, 10, 7, 0, 3}}}},
	{"random books 23", 0x2c8e4c108ed7eae, 85, "9", 5, []goldenRecord{{stats: [15]int{12, 3, 0, 9, 7, 6, 13, 4, 13, 0, 0, 4, 0, 0, 0}}}},
	{"random books 24", 0x688377f6995d2f5c, 16, "1", 0, []goldenRecord{{stats: [15]int{4, 3, 0, 1, 3, 2, 3, 0, 3, 0, 0, 0, 0, 0, 0}}}},
	{"random books 25", 0xf3faa9638d4bcb10, 56, "7", 4, []goldenRecord{{stats: [15]int{4, 0, 0, 4, 4, 2, 9, 3, 9, 0, 0, 3, 1, 0, 1}}}},
	{"random books 26", 0xc68f647ec7db4b54, 43, "3", 2, []goldenRecord{{stats: [15]int{8, 4, 0, 4, 5, 4, 7, 1, 7, 0, 0, 1, 0, 0, 0}}}},
	{"random books 27", 0xc6bf7592634d46d8, 64, "9", 5, []goldenRecord{{stats: [15]int{3, 0, 0, 3, 5, 2, 11, 4, 11, 0, 0, 4, 3, 0, 0}}}},
	{"random books 28", 0x8efc9636066d7fc4, 64, "9", 5, []goldenRecord{{stats: [15]int{5, 0, 0, 5, 5, 2, 11, 4, 11, 0, 0, 4, 1, 0, 0}}}},
	{"random books 29", 0x43c71914cbcc98c2, 26, "1", 0, []goldenRecord{{err: "integrate: root elements: integrate: conflicting must-match decisions: in the <person> group"}}},
	{"random books 30", 0x816a672037754fa4, 16, "1", 0, []goldenRecord{{stats: [15]int{3, 2, 0, 1, 2, 2, 2, 0, 2, 0, 0, 0, 0, 0, 0}}}},
	{"random books 31", 0x3f1c49bfa4d49e2d, 158, "17", 5, []goldenRecord{{stats: [15]int{5, 1, 0, 4, 7, 4, 17, 4, 17, 0, 0, 4, 5, 0, 2}}}},
	{"random books 32", 0x1e2bc027f24b9917, 26, "1", 0, []goldenRecord{{err: "integrate: root elements: integrate: conflicting must-match decisions: in the <person> group"}}},
	{"random books 33", 0x8398e45cad90a6d7, 964, "108", 8, []goldenRecord{{stats: [15]int{17, 3, 0, 14, 12, 9, 52, 7, 52, 0, 0, 7, 3, 0, 5}}}},
	{"random books 34", 0xfc7d6ccf216be755, 64, "9", 5, []goldenRecord{{stats: [15]int{3, 0, 0, 3, 5, 2, 11, 4, 11, 0, 0, 4, 3, 0, 0}}}},
	{"random books 35", 0xd3378958715207de, 17, "1", 0, []goldenRecord{{stats: [15]int{4, 2, 0, 2, 2, 3, 2, 0, 2, 0, 0, 0, 0, 0, 0}}}},
	{"random books 36", 0x946a0fb882bd7d6a, 162, "23", 6, []goldenRecord{{stats: [15]int{10, 1, 0, 9, 7, 4, 18, 5, 18, 0, 0, 5, 0, 0, 2}}}},
	{"random books 37", 0xdd87d91585ca83, 98, "9", 5, []goldenRecord{{stats: [15]int{6, 1, 0, 5, 6, 3, 13, 4, 13, 0, 0, 4, 2, 0, 1}}}},
	{"random books 38", 0xf1ea1a4c86fb105, 98, "9", 5, []goldenRecord{{stats: [15]int{7, 1, 0, 6, 6, 3, 13, 4, 13, 0, 0, 4, 1, 0, 1}}}},
	{"random books 39", 0xee2693861ce7b0d5, 62, "7", 4, []goldenRecord{{stats: [15]int{5, 1, 0, 4, 5, 2, 10, 3, 10, 0, 0, 3, 1, 0, 0}}}},
}
