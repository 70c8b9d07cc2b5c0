"""Tests for the compile pipelines: the C backend's compile-time
rejections, and differential checks of the Python-hosted compilers (the
closure compiler and the bytecode VM) against the reference tree-walker
(same semantics kernels, so outputs must be bit-identical)."""

import pytest

from repro import run_lolcode
from repro.compiler import CompileError, compile_c
from repro.interp import compile_vm_cached
from repro.launcher import PYTHON_ENGINES

from .conftest import lol


def diff_check(body: str, n_pes: int = 1, seed: int = 5, **kwargs):
    """Run on every Python engine; outputs must match the tree-walker."""
    src = lol(body)
    ref = run_lolcode(src, n_pes, seed=seed, engine="ast", **kwargs)
    for engine in PYTHON_ENGINES:
        got = run_lolcode(src, n_pes, seed=seed, engine=engine, **kwargs)
        assert got.outputs == ref.outputs, (
            f"{engine} vs ast divergence:\n{ref.outputs!r}\n{got.outputs!r}"
        )
    return got


class TestCodegenBasics:
    def test_generates_pe_main(self):
        c = compile_c(lol("VISIBLE 1"))
        assert "int main(void)" in c
        assert c.index("shmem_init();") < c.index("shmem_finalize();")

    def test_mangled_names_avoid_collisions(self):
        # LOLCODE names that are also host-language identifiers of the
        # engines' own runtimes must not clash with them.
        diff_check(
            "I HAS A ctx ITZ 5\nI HAS A rt ITZ 2\nI HAS A frame ITZ 3\n"
            "VISIBLE SUM OF ctx AN PRODUKT OF rt AN frame"
        )

    def test_srs_rejected(self):
        with pytest.raises(CompileError):
            compile_c(lol('I HAS A x ITZ 1\nVISIBLE SRS "x"'))

    def test_unknown_function_rejected_at_compile_time(self):
        with pytest.raises(CompileError):
            compile_c(lol("I IZ nope MKAY"))

    def test_bad_arity_rejected_at_compile_time(self):
        with pytest.raises(CompileError):
            compile_c(
                lol("HOW IZ I f YR a\n  FOUND YR a\nIF U SAY SO\nI IZ f MKAY")
            )

    def test_gtfo_outside_any_construct_rejected(self):
        with pytest.raises(CompileError):
            compile_c(lol("GTFO"))

    def test_infinite_loop_without_gtfo_rejected(self):
        with pytest.raises(CompileError):
            compile_c(lol("IM IN YR x\n  VISIBLE 1\nIM OUTTA YR x"))


class TestDifferentialSerial:
    """Every Python engine must agree with the tree-walker exactly (1 PE)."""

    CASES = [
        'VISIBLE "HAI" 42 3.14 WIN',
        "I HAS A x ITZ 5\nx R SUM OF x AN 2\nVISIBLE x",
        "I HAS A x ITZ SRSLY A NUMBR\nx R 3.9\nVISIBLE x",
        "VISIBLE QUOSHUNT OF -7 AN 2\nVISIBLE MOD OF -7 AN 3",
        "VISIBLE BIGGR OF 3 AN 9\nVISIBLE SMALLR OF 3 AN 9",
        'VISIBLE SMOOSH "a" AN 1 AN 2.5 AN FAIL MKAY',
        "VISIBLE MAEK 3.99 A NUMBR\nVISIBLE MAEK 2 A NUMBAR\nVISIBLE MAEK 0 A TROOF",
        'VISIBLE ALL OF WIN AN 1 AN "x" MKAY\nVISIBLE ANY OF FAIL AN 0 MKAY',
        "VISIBLE SQUAR OF 7\nVISIBLE UNSQUAR OF 81\nVISIBLE FLIP OF 8",
        "VISIBLE BOTH SAEM 2 AN 2.0\nVISIBLE DIFFRINT 2 AN 3",
        "VISIBLE BIGGER 4 AN 2\nVISIBLE SMALLR 4 AN 2",
        "VISIBLE WON OF WIN AN WIN\nVISIBLE NOT FAIL",
        "I HAS A x ITZ 2\nBOTH SAEM x AN 2, O RLY?\nYA RLY,\n  VISIBLE 1\nNO WAI\n  VISIBLE 0\nOIC",
        "I HAS A x ITZ 3\nBOTH SAEM x AN 1, O RLY?\nYA RLY,\n  VISIBLE 1\nMEBBE BOTH SAEM x AN 3\n  VISIBLE 3\nNO WAI\n  VISIBLE 0\nOIC",
        "2\nWTF?\nOMG 1\n  VISIBLE 1\nOMG 2\n  VISIBLE 2\nOMG 3\n  VISIBLE 3\n  GTFO\nOMGWTF\n  VISIBLE 9\nOIC",
        "7\nWTF?\nOMG 1\n  VISIBLE 1\nOMGWTF\n  VISIBLE 9\nOIC",
        "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n  VISIBLE i\nIM OUTTA YR l",
        "IM IN YR l NERFIN YR i WILE BIGGER i AN -4\n  VISIBLE i\nIM OUTTA YR l",
        "IM IN YR a UPPIN YR i TIL BOTH SAEM i AN 3\n  IM IN YR b UPPIN YR j TIL BOTH SAEM j AN 2\n    VISIBLE SUM OF PRODUKT OF i AN 10 AN j\n  IM OUTTA YR b\nIM OUTTA YR a",
        "I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 5\na'Z 2 R 42\nVISIBLE a'Z 2 a'Z 0",
        "I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3\na'Z 0 R 1.5\nVISIBLE a'Z 0",
        "HOW IZ I fact YR n\n  BOTH SAEM n AN 0, O RLY?\n  YA RLY,\n    FOUND YR 1\n  OIC\n  FOUND YR PRODUKT OF n AN I IZ fact YR DIFF OF n AN 1 MKAY\nIF U SAY SO\nVISIBLE I IZ fact YR 6 MKAY",
        "HOW IZ I f\n  SUM OF 40 AN 2\nIF U SAY SO\nVISIBLE I IZ f MKAY",
        "I HAS A g ITZ 1\nHOW IZ I bump\n  g R SUM OF g AN 1\n  FOUND YR g\nIF U SAY SO\nVISIBLE I IZ bump MKAY\nVISIBLE g",
        'I HAS A pe ITZ 7\nVISIBLE "id=:{pe}."',
        "I HAS A x ITZ 3.5\nx IS NOW A NUMBR\nVISIBLE x",
        "SUM OF 1 AN 2\nVISIBLE IT",
        'VISIBLE SUM OF "3" AN "4"\nVISIBLE SUM OF "1.5" AN 1',
        'VISIBLE "a:)b:>c"',
        "VISIBLE NOT 0\nVISIBLE NOT 0.0\nVISIBLE NOT \"\"",
    ]

    @pytest.mark.parametrize("body", CASES, ids=range(len(CASES)))
    def test_case(self, body):
        diff_check(body)


class TestDifferentialParallel:
    def test_identity(self):
        diff_check('VISIBLE ME "/" MAH FRENZ', n_pes=4)

    def test_ring_put(self):
        body = (
            "WE HAS A a ITZ SRSLY A NUMBR\n"
            "WE HAS A b ITZ SRSLY A NUMBR\n"
            "a R SUM OF ME AN 1\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, UR b R MAH a\nHUGZ\n"
            "VISIBLE SUM OF a AN b"
        )
        diff_check(body, n_pes=4)

    def test_whole_array_transfer(self):
        body = (
            "WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n"
            "  array'Z i R SUM OF PRODUKT OF ME AN 100 AN i\n"
            "IM OUTTA YR l\nHUGZ\n"
            "I HAS A local ITZ LOTZ A NUMBRS AN THAR IZ 8\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "TXT MAH BFF k, MAH local R UR array\n"
            "VISIBLE local'Z 0 \" \" local'Z 7"
        )
        diff_check(body, n_pes=3)

    def test_locks(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nHUGZ\n"
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
            "  IM SRSLY MESIN WIF x\n"
            "  TXT MAH BFF 0, UR x R SUM OF UR x AN 1\n"
            "  DUN MESIN WIF x\n"
            "IM OUTTA YR l\nHUGZ\n"
            "BOTH SAEM ME AN 0, O RLY?\nYA RLY,\n  VISIBLE x\nOIC"
        )
        rc = diff_check(body, n_pes=4)
        assert rc.outputs[0] == "40\n"

    def test_trylock_sets_it(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
            "IM MESIN WIF x\nVISIBLE IT\nDUN MESIN WIF x"
        )
        diff_check(body, n_pes=1)

    def test_random_streams_match(self):
        # Every Python engine draws from ctx.rng, so seeded streams agree.
        diff_check("VISIBLE WHATEVR\nVISIBLE WHATEVAR", n_pes=3, seed=11)

    def test_block_predication(self):
        body = (
            "WE HAS A x ITZ SRSLY A NUMBR\n"
            "WE HAS A y ITZ SRSLY A NUMBR\n"
            "x R ME\ny R PRODUKT OF ME AN 2\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A s ITZ A NUMBR\n"
            "TXT MAH BFF k AN STUFF\n"
            "  s R SUM OF UR x AN UR y\n"
            "TTYL\n"
            "VISIBLE s"
        )
        diff_check(body, n_pes=4)

    def test_nbody_fixed_matches(self, example_path):
        src = example_path("nbody2d_fixed.lol").read_text()
        ri = run_lolcode(src, 2, seed=3, engine="ast")
        rc = run_lolcode(src, 2, seed=3, engine="vm")
        assert ri.outputs == rc.outputs


class TestCompiledOnProcesses:
    @pytest.mark.procs
    def test_compiled_process_executor(self):
        body = (
            "WE HAS A a ITZ SRSLY A NUMBR\n"
            "a R PRODUKT OF ME AN 3\nHUGZ\n"
            "I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n"
            "I HAS A got ITZ A NUMBR\n"
            "TXT MAH BFF k, got R UR a\n"
            "VISIBLE got"
        )
        r = run_lolcode(
            lol(body), 3, executor="process", engine="vm",
            barrier_timeout=60,
        )
        assert r.outputs == ["3\n", "6\n", "0\n"]


class TestEnginePromotion:
    """Compiled engines as first-class launcher engines: restrictions
    surface in the caller, and the VM's compile cache is bounded, keyed
    by filename and flags, and shared by every thread PE."""

    def test_compiled_rejects_max_steps_free_srs_via_launcher(self):
        # The native engine must reject interpret-only constructs in the
        # *caller* (before any toolchain lookup), not from inside a PE.
        with pytest.raises(CompileError, match="SRS"):
            run_lolcode(
                lol('I HAS A x ITZ 1\nVISIBLE SRS "x"'), 1, engine="c",
                executor="process",
            )

    def test_compiled_cache_keyed_by_filename(self):
        compile_vm_cached.cache_clear()
        src = lol("VISIBLE 2")
        a = compile_vm_cached(src, "a.lol")
        b = compile_vm_cached(src, "b.lol")
        assert a is not b
        assert compile_vm_cached(src, "a.lol") is a

    def test_compiled_cache_is_bounded(self):
        compile_vm_cached.cache_clear()
        maxsize = compile_vm_cached.cache_info().maxsize
        assert maxsize is not None, "compile cache must be bounded"
        for i in range(maxsize + 8):
            compile_vm_cached(lol(f"VISIBLE {i}"), f"gen{i}.lol")
        assert compile_vm_cached.cache_info().currsize <= maxsize

    def test_compiled_cache_shared_across_thread_pes(self):
        compile_vm_cached.cache_clear()
        src = lol("VISIBLE SUM OF ME AN 1")
        run_lolcode(src, 4, seed=1, engine="vm")
        info = compile_vm_cached.cache_info()
        assert info.misses == 1  # compiled once...
        assert info.hits >= 3  # ...shared by every other PE
        run_lolcode(src, 4, seed=1, engine="vm")
        assert compile_vm_cached.cache_info().misses == 1

    def test_traced_and_untraced_compiles_are_distinct(self):
        # FLOP accounting is baked in at compile time, so the tracing
        # flag is part of the cache identity — and traced flop totals
        # match the interpreters exactly (see test_engine_differential).
        compile_vm_cached.cache_clear()
        src = lol("VISIBLE SQUAR OF 3")
        run_lolcode(src, 1, engine="vm")
        run_lolcode(src, 1, engine="vm", trace=True)
        assert compile_vm_cached.cache_info().misses == 2
