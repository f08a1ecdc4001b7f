"""Tests for the named workload registry (WorkloadSpec/build_plan)
and the typed per-kind scenario parameter surfaces."""

import dataclasses

import pytest

from repro.experiments.params import (
    PARAM_TYPES,
    LlmParams,
    OverloadParams,
    validate_params,
)
from repro.experiments.scenario import Scenario
from repro.frameworks.lowering import lower_inference
from repro.workloads.models import MODEL_NAMES, resnet50
from repro.workloads.models.llm import LLM_SMALL
from repro.workloads.registry import (
    WORKLOADS,
    LlmWorkload,
    WorkloadSpec,
    ZooWorkload,
    build_plan,
    get_workload,
    register_workload,
    workload_names,
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_zoo_model_registered(self):
        names = workload_names()
        for model in MODEL_NAMES:
            assert model in names
        assert "llm-small" in names
        assert "llm" in names

    def test_specs_satisfy_protocol(self):
        for spec in WORKLOADS.values():
            assert isinstance(spec, WorkloadSpec)
            assert spec.kinds
            description = spec.describe()
            assert "kinds" in description

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown workload"):
            get_workload("gpt5")

    def test_build_plan_matches_zoo(self):
        via_registry = build_plan("resnet50", "inference")
        # A fresh lowering of the zoo module at the Table 1 batch size.
        via_zoo = lower_inference(resnet50(), (4, 3, 224, 224),
                                  "resnet50-inf-b4")
        assert via_registry.kernel_count == via_zoo.kernel_count
        assert via_registry.state_bytes == via_zoo.state_bytes

    def test_build_plan_batch_override(self):
        small = build_plan("resnet50", "inference", batch_size=1)
        big = build_plan("resnet50", "inference", batch_size=16)
        assert big.state_bytes >= small.state_bytes

    def test_llm_plan_through_registry(self):
        plan = build_plan("llm", "inference", prompt_len=32, gen_tokens=4)
        assert plan.kernel_count > 0
        assert get_workload("llm").config is LLM_SMALL

    def test_zoo_workload_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ZooWorkload("not_a_model")
        with pytest.raises(ValueError):
            ZooWorkload("resnet50").plan("serving")
        with pytest.raises(ValueError):
            ZooWorkload("resnet50").plan("inference", batch_size=-1)

    def test_llm_workload_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            LlmWorkload("x").plan("training")

    def test_unknown_kwarg_is_typeerror(self):
        with pytest.raises(TypeError):
            build_plan("resnet50", "inference", sequence_len=128)

    def test_register_requires_name(self):
        with pytest.raises(ValueError):
            register_workload(LlmWorkload(""))


# ----------------------------------------------------------------------
# Typed params
# ----------------------------------------------------------------------
class TestTypedParams:
    def test_to_params_is_sparse(self):
        assert OverloadParams().to_params() == {}
        assert OverloadParams(be_clients=4).to_params() == {"be_clients": 4}
        assert LlmParams(seed=2, max_batch=16).to_params() == \
            {"seed": 2, "max_batch": 16}

    def test_every_params_kind_covered(self):
        assert set(PARAM_TYPES) == {"experiment", "overload", "faults",
                                    "fleet", "llm"}

    def test_validate_unknown_key_names_surface(self):
        with pytest.raises(ValueError, match="be_client\\b"):
            validate_params("overload", {"be_client": 3})

    def test_validate_range(self):
        with pytest.raises(ValueError, match="request_rate"):
            validate_params("llm", {"request_rate": -1.0})
        with pytest.raises(ValueError, match="num_gpus"):
            validate_params("fleet", {"num_gpus": 0})

    def test_validate_choices(self):
        with pytest.raises(ValueError, match="policy"):
            validate_params("overload", {"policy": "drop"})
        with pytest.raises(ValueError, match="arrivals"):
            validate_params("overload", {"arrivals": "bursty"})

    def test_llm_mean_cap_relations(self):
        with pytest.raises(ValueError, match="prompt_mean"):
            LlmParams(prompt_mean=300.0, prompt_cap=256)
        with pytest.raises(ValueError, match="output_mean"):
            LlmParams(output_mean=100.0, output_cap=64)

    def test_scenario_construction_validates(self):
        with pytest.raises(ValueError, match="unknown llm scenario"):
            Scenario(kind="llm", params={"reqest_rate": 80.0})
        with pytest.raises(ValueError, match="slowdown"):
            Scenario(kind="fleet", params={"slowdown": 0})
        # Valid sparse params construct fine and stay sparse.
        scenario = Scenario(kind="llm", params={"max_batch": 16})
        assert scenario.params == {"max_batch": 16}

    def test_rebalance_without_single_home_rejected_at_construction(self):
        with pytest.raises(ValueError, match="single-home"):
            Scenario(kind="fleet", params={"rebalance": True})
        Scenario(kind="fleet", params={"rebalance": True,
                                       "placement": "plan"})

    @pytest.mark.parametrize("kind", sorted(PARAM_TYPES))
    def test_cli_is_generated_from_params(self, kind, monkeypatch, capsys):
        import repro.cli as cli
        from repro.experiments.registry import make_scenario

        # Experiment scenarios run under their catalog names.
        command = {"experiment": "inf-train"}.get(kind, kind)
        built = []

        class Built(Exception):
            pass

        def capture(scenario):
            built.append(scenario)
            raise Built

        def scenario_of(*flags):
            monkeypatch.setattr(cli, "run_scenario", capture)
            with pytest.raises(Built):
                cli.main([command, *flags])
            return built.pop()

        # No flags: exactly the catalog's defaults-only scenario.
        assert scenario_of() == make_scenario(command)

        # --help lists a flag for every scalar knob.
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        out = capsys.readouterr().out
        scalars = [f for f in dataclasses.fields(PARAM_TYPES[kind])
                   if f.name not in ("plan", "tenants", "jobs", "orion")]
        for f in scalars:
            assert "--" + f.name.replace("_", "-") in out, f.name

        # Every flag set to a non-default value reaches its field.
        others = {"model": "llm" if kind == "llm" else "resnet50",
                  "be_model": "resnet50", "device": "A100-40GB"}
        for f in scalars:
            flag = "--" + f.name.replace("_", "-")
            choices = f.metadata["choices"]
            if isinstance(f.default, bool):
                value = not f.default
                flags = [flag if value else "--no-" + flag[2:]]
            else:
                if choices is not None:
                    value = next(c for c in choices if c != f.default)
                elif isinstance(f.default, str):
                    value = others[f.name]
                elif isinstance(f.default, int):
                    value = f.default + 1
                else:
                    value = 2 * (f.default or 0.25)
                flags = [flag, str(value)]
            if f.name == "rebalance":
                flags += ["--placement", "plan"]
            assert scenario_of(*flags).params[f.name] == value, f.name
