#!/bin/sh
# Runs every table/figure experiment binary and logs output to
# results/logs/. Heavier bins run last. TACO_SCALE=paper enlarges all
# workloads; TACO_SEEDS=n averages the accuracy experiments over n
# seeds.
#
# Every binary must leave a fresh results/<exp>*.csv behind; a run
# that exits zero but writes no CSV is still counted as a failure
# (logged to results/logs/failures.txt) and the script exits nonzero.
set -x
mkdir -p results/logs
rm -f results/logs/failures.txt
stamp=results/logs/.csv_stamp

run_exp() {
  exp="$1"
  shift
  touch "$stamp"
  if ! "$@" ./target/release/"$exp" > "results/logs/$exp.log" 2>&1; then
    echo "FAILED: $exp (nonzero exit; see results/logs/$exp.log)" >> results/logs/failures.txt
    return
  fi
  if ! find results -maxdepth 1 -name "$exp*.csv" -newer "$stamp" | grep -q .; then
    echo "FAILED: $exp (exited zero but wrote no results/$exp*.csv)" >> results/logs/failures.txt
    return
  fi
  echo "done $exp"
}

for exp in table1 fig7 table8 table2 fig5 table3 fig6 ablation_alpha \
           ext_baselines ext_compression ext_comm_regimes fault_sweep \
           fig2 fig4 table6 table5; do
  run_exp "$exp"
done
run_exp table7 env TACO_CLIENTS=40
rm -f "$stamp"

if [ -s results/logs/failures.txt ]; then
  echo "EXPERIMENTS FAILED:" >&2
  cat results/logs/failures.txt >&2
  exit 1
fi
echo ALL_DONE
