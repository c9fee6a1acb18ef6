"""Tests for the paper-claim verification harness."""

import pytest

from repro.experiments.claims import (
    ALL_CLAIMS,
    Claim,
    render_scorecard,
    verify_claims,
)


class TestClaimHarness:
    @pytest.fixture(scope="class")
    def outcomes(self, small_world):
        return verify_claims(small_world)

    def test_every_claim_evaluated(self, outcomes):
        assert {o.claim_id for o in outcomes} == {c.claim_id for c in ALL_CLAIMS}

    def test_all_claims_hold_on_small_world(self, outcomes):
        failing = [o for o in outcomes if not o.passed]
        assert not failing, "\n".join(
            f"{o.claim_id}: {o.detail}" for o in failing
        )

    def test_details_are_informative(self, outcomes):
        for outcome in outcomes:
            assert outcome.detail and len(outcome.detail) > 5

    def test_scorecard_rendering(self, outcomes):
        text = render_scorecard(outcomes)
        assert "paper-claim scorecard" in text
        assert f"{len(outcomes)}/{len(outcomes)} claims hold" in text
        assert "[PASS]" in text

    def test_crashing_check_becomes_failed_claim(self, small_world):
        def boom(results):
            raise RuntimeError("kaput")

        claims = (
            Claim("boom", "a crashing check", (), boom),
        )
        outcomes = verify_claims(small_world, claims)
        assert len(outcomes) == 1
        assert not outcomes[0].passed
        assert "kaput" in outcomes[0].detail

    def test_failed_claim_rendered_as_fail(self, small_world):
        claims = (
            Claim("never", "always false", (), lambda r: (False, "no")),
        )
        outcomes = verify_claims(small_world, claims)
        text = render_scorecard(outcomes)
        assert "[FAIL] never" in text
        assert "0/1 claims hold" in text

    def test_claim_ids_unique(self):
        ids = [c.claim_id for c in ALL_CLAIMS]
        assert len(set(ids)) == len(ids)

    def test_claims_cover_all_paper_sections(self):
        statements = " ".join(c.statement for c in ALL_CLAIMS)
        for section in ("§4.1", "§4.3", "§4.5", "§5.1", "§5.2", "§5.3",
                        "§5.4", "§6", "§7", "Appendix B", "Appendix D"):
            assert section in statements, f"no claim covers {section}"
