#!/usr/bin/env python3
"""Dead-surface scan: pub items of crates/*/src that nothing reaches.

Prints one line per finding and exits 1 if there is any:

  DEAD  = a pub fn/struct/enum/const/mod/trait/type/static of crates/*/src
          that no non-test code names;
  LOCAL = a pub fn that only its own file names, tests included (make it
          private).

"Non-test" is crates/*/src outside #[cfg(test)], benchmark/src,
examples/, src/, plus the names crates/sim/tests/benchmark_surface.rs
pins; comments, string literals and re-exports do not count, doc tests
count as tests. The scan is lexical: a name two items share (`new`,
`name`) is never reported, so it finds a floor, not every dead item.
Deleting one item can expose the next, so rerun it until it prints
nothing.

Usage (from anywhere): python3 scripts/dead_surface.py [--no-keep]
`--no-keep` also reports the KEEP names below.
"""
import glob, os, re, sys

# Items kept on purpose although nothing outside tests reaches them.
KEEP = set(
    # the five closed forms ROADMAP item 9 will check against
    "multiuser_capacity_low_snr_bps lora_collision_probability_approx "
    "max_timing_offset_per_bin_s max_frequency_offset_per_bin_hz "
    "max_tolerable_power_difference_db "
    # reference implementations a surviving test compares a hot-path
    # function against: the sliding bank and the bank, the lattice grid
    # and the sync comb
    "upchirp_bank_into downchirp_bank_into shift_template fft_shift ifft "
    "padded_spectrum padded_spectrum_downchirp_into "
    # test helpers: the demodulator-level decision the distributed.rs tests
    # drive, the dsp and phy tests' signals, the CRC payload of
    # tests/end_to_end.rs, the experiment and JSON round-trip tests, the
    # statistical tests
    "demodulate_symbol_with shifted_upchirp impaired_upchirp dechirp "
    "LinkPacket column from_json variance".split()
)
if "--no-keep" in sys.argv[1:]:
    KEEP = set()
os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
found = False
TOKEN = re.compile(r"//[^\n]*|/\*.*?\*/|r(#*)\".*?\"\1|b?\"(?:[^\"\\]|\\.)*\""
                   r"|b?'(?:\\u\{[0-9a-fA-F]+\}|\\.|[^'\\\n])'", re.S)
strip = lambda t: TOKEN.sub(lambda m: "\n" * m.group(0).count("\n"), t)

def block_end(t, k):
    depth = 0
    while True:
        depth += (t[k] == "{") - (t[k] == "}")
        k += 1
        if depth == 0:
            return k

def split_tests(t):  # -> (non-test code, #[cfg(test)] code), line numbers kept
    out, tests, i = [], [], 0
    for m in re.finditer(r"#\[cfg\((?:all\()?test\b[^\]]*\]", t):
        if m.start() < i:
            continue
        brace, semi = t.find("{", m.end()), t.find(";", m.end())
        end = semi + 1 if semi != -1 and (brace == -1 or semi < brace) else block_end(t, brace)
        out += [t[i:m.start()], "\n" * t.count("\n", m.start(), end)]
        tests.append(t[m.start():end])
        i = end
    return "".join(out + [t[i:]]), "".join(tests)

def doctests(raw):
    docs = "\n".join(re.sub(r"^\s*//[/!] ?", "", l) for l in raw.splitlines() if re.match(r"\s*//[/!]", l))
    return "\n".join(re.findall(r"^```(?:rust)?\n(.*?)^```", docs, re.S | re.M))

g = lambda *ps: sorted(f for p in ps for f in glob.glob(p, recursive=True))
code = {}
for f in g("crates/*/src/**/*.rs"):
    raw = open(f).read()
    body, tests = split_tests(strip(raw))
    code[f] = (body, tests + doctests(raw))
for f in g("crates/*/tests/**/*.rs", "tests/**/*.rs"):
    code[f] = ("", strip(open(f).read()))
for f in g("benchmark/src/**/*.rs", "examples/**/*.rs", "src/**/*.rs"):
    code[f] = (strip(open(f).read()), "")
surface = "crates/sim/tests/benchmark_surface.rs"  # what benchmark/ pins counts as reached
code[surface] = (code[surface][1], "")
# A re-export reaches nothing but the modules it names.
unexport = lambda t: re.sub(r"\bpub\s+use\b[^;]*;", lambda m: " ".join(re.findall(r"(\w+)::", m.group(0))), t)
nontest = {f: unexport(c[0]) for f, c in code.items()}
anycode = {f: unexport(c[0] + c[1]) for f, c in code.items()}

def without_impls(t, name):  # a type's own impl blocks do not reach it
    head = re.compile(r"\bimpl\b(?:<[^{;]*?>)?\s+(?:[\w:<>, ]+\s+for\s+)?%s\b[^{;]*\{" % re.escape(name))
    while (m := head.search(t)):
        t = t[:m.start()] + t[block_end(t, m.end() - 1):]
    return t

ITEM = re.compile(r"\bpub\s+(?:(?:const|async|unsafe)\s+)*(fn|struct|enum|const|mod|trait|type|static)\s+(\w+)")
for f in g("crates/*/src/**/*.rs"):
    for m in ITEM.finditer(code[f][0]):
        kind, name = m.groups()
        if name in KEEP:
            continue
        n = re.escape(name)
        # For a fn, a same-named field (`.x` not called, `x: v`) is not a use.
        w = re.compile(r"(?<!\.)\b%s\b(?!\s*:(?!:))|\.%s\s*(?=\(|::)" % (n, n) if kind == "fn" else r"\b%s\b" % n)
        own = without_impls(nontest[f], name) if kind in ("struct", "enum", "trait") else nontest[f]
        where = f"{f}:{code[f][0].count(chr(10), 0, m.start()) + 1}"
        if any(g_ != f and w.search(nontest[g_]) for g_ in code):
            continue
        if len(w.findall(own)) == 1:
            print(f"DEAD  {kind:6} {name:32} {where}")
            found = True
        elif kind == "fn" and not any(g_ != f and w.search(anycode[g_]) for g_ in code):
            print(f"LOCAL {kind:6} {name:32} {where}")
            found = True
sys.exit(1 if found else 0)
