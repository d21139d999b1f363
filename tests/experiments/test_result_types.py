"""Experiment result containers: formatting and accessors."""

from repro.experiments.table3 import Table3Result, Table3Row
from repro.experiments.table4 import Table4Result, Table4Row
from repro.experiments.fig7 import Fig7Result, Fig7Row
from repro.experiments.fig8 import Fig8Result, Fig8Row
from repro.train.trainer import TrainingCurves


class TestTable3Result:
    def _result(self):
        return Table3Result(
            rows=[
                Table3Row("NPB", "MV-GNN", 91.5, 182, 84.6, 92.6, 17),
                Table3Row("NPB", "Pluto", 64.0, 182, 84.6, 60.5, 17),
                Table3Row("BOTS", "MV-GNN", 83.3, 6, 50.0, 82.9, 17),
            ]
        )

    def test_get(self):
        result = self._result()
        assert result.get("NPB", "MV-GNN").accuracy == 91.5
        assert result.get("NPB", "Ghost") is None
        assert result.grid()["BOTS"] == {"MV-GNN": 83.3}

    def test_format_columns(self):
        text = self._result().format()
        assert "Benchmark" in text and "Paper" in text and "Prior" in text
        assert "92.6" in text and "91.5" in text and "84.6" in text

    def test_format_handles_missing_paper_value(self):
        result = Table3Result(
            rows=[Table3Row("NPB", "Extra", 50.0, 10, 60.0, None, 17)]
        )
        assert "-" in result.format()


class TestTable4Result:
    def _result(self):
        return Table4Result(
            rows=[
                Table4Row("BT", 184, 170, 184, 176),
                Table4Row("EP", 10, 9, 10, 9),
            ]
        )

    def test_totals(self):
        assert self._result().totals() == (194, 179)

    def test_format_includes_total_row(self):
        text = self._result().format()
        assert "Total" in text and "787" in text


class TestFig7Result:
    def _curves(self, loss, acc):
        return TrainingCurves(
            epochs=list(range(len(loss))),
            loss=loss,
            train_accuracy=acc,
            test_accuracy=[0.5] * len(loss),
        )

    def test_shape_predicates(self):
        good = Fig7Row(17, self._curves([1.0, 0.5, 0.2], [0.5, 0.7, 0.9]),
                       40, 50.0, 12, 58.3)
        assert good.loss_decreased() and good.accuracy_increased()
        bad = Fig7Row(17, self._curves([0.2, 0.5, 1.0], [0.9, 0.7, 0.5]),
                      40, 50.0, 12, 58.3)
        assert not bad.loss_decreased() and not bad.accuracy_increased()
        assert "loss decreased False" in Fig7Result([bad]).format()

    def test_format_lists_epochs(self):
        row = Fig7Row(17, self._curves([1.0, 0.5], [0.5, 0.9]), 40, 50.0, 12, 58.3)
        text = Fig7Result([row]).format()
        assert "epoch" in text and "0.5000" in text and "prior 58.3%" in text


class TestFig8Result:
    def test_format(self):
        row = Fig8Row(
            17, "NPB", 787, 84.6,
            {"MV-GNN": 93.0, "node view": 91.0, "structural view": 88.0},
            {
                "N_multi": 100.0, "N_n": 95.0, "N_s": 88.0,
                "IMP_n": 0.95, "IMP_s": 0.88,
            },
        )
        text = Fig8Result([row]).format()
        assert "NPB" in text and "0.95" in text and "paper" in text
        assert "84.6" in text and "787" in text
